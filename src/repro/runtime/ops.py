"""Numpy reference kernels for every graph-IR operator."""

from __future__ import annotations

import numpy as np

from repro.autograd.im2col import im2col, im2col_view
from repro.graph.ir import Node, OpKind


def conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None, stride: int, padding: int, groups: int = 1) -> np.ndarray:
    """Reference convolution on a batched NCHW input.

    One sample at a time, like ``LINEAR``: ``einsum`` picks its BLAS
    blocking by batch size, so a batched product would round differently
    than the same sample run alone — per-sample products keep inference
    bitwise batch-invariant.
    """
    n = x.shape[0]
    if n == 0:
        out = _conv2d_rows(x, weight, stride, padding, groups)
    else:
        out = np.concatenate([_conv2d_rows(x[i : i + 1], weight, stride, padding, groups) for i in range(n)])
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out.astype(np.float32, copy=False)


def _conv2d_rows(x: np.ndarray, weight: np.ndarray, stride: int, padding: int, groups: int) -> np.ndarray:
    f, c_per_group, kh, kw = weight.shape
    f_per_group = f // groups
    outs = []
    for g in range(groups):
        xg = x[:, g * c_per_group : (g + 1) * c_per_group]
        wg = weight[g * f_per_group : (g + 1) * f_per_group]
        col, ho, wo = im2col(xg, kh, kw, stride, padding)
        out = np.einsum("fk,nkl->nfl", wg.reshape(f_per_group, -1), col, optimize=True)
        outs.append(out)
    return np.concatenate(outs, axis=1).reshape(x.shape[0], f, ho, wo)


def _apply_activation(x: np.ndarray, activation: str | None, inplace: bool = False) -> np.ndarray:
    """Fused activation epilogue; ``inplace`` is safe only on arrays the
    caller just allocated (conv/linear/add outputs)."""
    if activation is None:
        return x
    if activation == "relu":
        return np.maximum(x, 0.0, out=x if inplace else None)
    if activation == "relu6":
        return np.clip(x, 0.0, 6.0, out=x if inplace else None)
    raise ValueError(f"unknown fused activation {activation!r}")


def eval_node(node: Node, inputs: list[np.ndarray]) -> np.ndarray:
    """Evaluate one IR node on batched numpy inputs."""
    op = node.op
    if op == OpKind.CONV2D:
        out = conv2d(
            inputs[0],
            node.params["weight"],
            node.params.get("bias"),
            node.attrs.get("stride", 1),
            node.attrs.get("padding", 0),
            node.attrs.get("groups", 1),
        )
        return _apply_activation(out, node.attrs.get("activation"), inplace=True)
    if op == OpKind.BATCHNORM:
        gamma = node.params["gamma"]
        beta = node.params["beta"]
        mean = node.params["mean"]
        var = node.params["var"]
        eps = node.attrs.get("eps", 1e-5)
        scale = (gamma / np.sqrt(var + eps)).reshape(1, -1, 1, 1)
        shift = (beta - mean * gamma / np.sqrt(var + eps)).reshape(1, -1, 1, 1)
        return (inputs[0] * scale + shift).astype(np.float32)
    if op == OpKind.RELU:
        return np.maximum(inputs[0], 0.0)
    if op == OpKind.RELU6:
        return np.clip(inputs[0], 0.0, 6.0)
    if op == OpKind.MAXPOOL:
        return _pool(inputs[0], node, reducer="max")
    if op == OpKind.AVGPOOL:
        return _pool(inputs[0], node, reducer="mean")
    if op == OpKind.GLOBAL_AVGPOOL:
        return inputs[0].mean(axis=(2, 3), keepdims=True).astype(np.float32)
    if op == OpKind.FLATTEN:
        return inputs[0].reshape(inputs[0].shape[0], -1)
    if op == OpKind.LINEAR:
        x = inputs[0]
        w_t = node.params["weight"].T
        # one sample at a time: BLAS blocks a (N, K) @ (K, M) product
        # differently per N, so a coalesced serving batch would round
        # differently than the same request served alone — per-sample
        # products keep inference bitwise batch-invariant
        out = np.concatenate([x[i : i + 1] @ w_t for i in range(x.shape[0])])
        bias = node.params.get("bias")
        if bias is not None:
            out = out + bias
        return _apply_activation(out.astype(np.float32, copy=False), node.attrs.get("activation"), inplace=True)
    if op == OpKind.ADD:
        return _apply_activation(inputs[0] + inputs[1], node.attrs.get("activation"), inplace=True)
    if op == OpKind.CONSTANT:
        return node.params["value"]
    if op == OpKind.OUTPUT:
        return inputs[0]
    raise NotImplementedError(f"no runtime kernel for {op}")


def _pool(x: np.ndarray, node: Node, reducer: str) -> np.ndarray:
    k = node.attrs["kernel_size"]
    s = node.attrs.get("stride", k)
    p = node.attrs.get("padding", 0)
    if p:
        fill = -np.inf if reducer == "max" else 0.0
        x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=fill)
    view = im2col_view(x, k, k, s)
    if reducer == "max":
        return np.ascontiguousarray(view.max(axis=(2, 3))).astype(np.float32)
    return np.ascontiguousarray(view.mean(axis=(2, 3))).astype(np.float32)
