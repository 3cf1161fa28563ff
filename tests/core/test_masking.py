"""One-shot mask extraction against its definition."""

import numpy as np
import pytest

from repro import nn
from repro.core.masking import extract_masks
from repro.core.patterns import PatternSet, enumerate_candidate_patterns
from repro.core.projections import connectivity_budget, project_connectivity
from repro.utils.rng import make_rng


def _model(tied: bool) -> nn.Module:
    """3x3, grouped 3x3, 1x1 and 5x5 convs; ``tied`` draws weights from
    three values so kernel norms and pattern energies tie everywhere."""
    rng = make_rng(11)
    model = nn.Sequential(
        nn.Conv2d(4, 12, 3, padding=1, rng=rng),
        nn.Conv2d(12, 12, 3, padding=1, groups=3, rng=rng),
        nn.Conv2d(12, 10, 1, rng=rng),
        nn.Conv2d(10, 9, 3, padding=1, rng=rng),
        nn.Conv2d(9, 6, 5, padding=2, rng=rng),
    )
    if tied:
        for module in model.modules():
            if isinstance(module, nn.Conv2d):
                shape = module.weight.data.shape
                module.weight.data = rng.choice([-1.0, 1.0, 2.0], size=shape).astype(np.float32)
    return model


def _reference(model, pattern_set, rate):
    """``masks_for(assign(w))`` x the top-alpha keep-mask of ``w * pattern_mask``."""
    masks = {}
    for name, module in model.named_modules():
        if not isinstance(module, nn.Conv2d):
            continue
        w = module.weight.data
        mask = np.ones_like(w)
        if pattern_set is not None and module.kernel_size == 3 and module.groups == 1:
            mask = mask * pattern_set.masks_for(pattern_set.assign(w))
        if rate is not None and module.groups == 1:
            _, keep = project_connectivity(w * mask, connectivity_budget(w.shape, rate))
            mask = mask * keep[:, :, None, None]
        masks[name] = mask
    return masks


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("with_patterns", [True, False])
@pytest.mark.parametrize("rate", [None, 1.0, 2.0, 3.6])
def test_extract_masks_is_byte_identical_to_its_definition(tied, with_patterns, rate):
    model = _model(tied)
    ps = PatternSet(enumerate_candidate_patterns()[:8]) if with_patterns else None
    got = extract_masks(model, ps, connectivity_rate=rate)
    want = _reference(model, ps, rate)
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name


def test_extract_masks_leaves_weights_untouched():
    model = _model(tied=False)
    before = [p.data.copy() for p in model.parameters()]
    extract_masks(model, PatternSet(enumerate_candidate_patterns()[:8]), connectivity_rate=2.0)
    for old, param in zip(before, model.parameters()):
        assert old.tobytes() == param.data.tobytes()
