/*
 * PatDNN native FKW convolution (paper §5, Figure 7 "+LRE").
 *
 * One generic, data-driven kernel that executes a pattern-pruned conv
 * layer straight from its FKW arrays: offset / reorder / index, the
 * per-kernel pattern id, the packed weights and a per-pattern tap table.
 * Connectivity-pruned kernels are never visited and pattern-pruned
 * weights are never multiplied, so the work is the layer's non-zeros.
 *
 * For each sample the filters are walked in FKR order.  Each filter's
 * output is produced span by span: a span is a run of contiguous output
 * elements held in vector registers while every kernel of the filter is
 * accumulated into it (a branch-free 4-tap body, or a generic tap loop
 * for other entry counts), then bias + activation are applied and the
 * span is stored once.  Which spans exist is chosen here from the layer
 * shape (see fkw_conv_scratch):
 *
 *   direct  stride 1 and output rows of at least DIRECT_MIN_WO elements:
 *           a span is one output row, read straight from the padded
 *           input plane (tap (r, c) of row oh is row oh + r shifted by
 *           c) — no im2col copy at all;
 *   im2col  otherwise: the pattern-union taps of the sample are copied
 *           once into a (C, U, Ho*Wo) scratch buffer (a kernel's taps
 *           sit next to each other) and a span is the whole output
 *           plane, so tiny planes (2x2, 4x4) pay the per-kernel
 *           bookkeeping once per plane, not once per row.
 *
 * Determinism contract: every output element is computed by the same
 * sequence of IEEE operations — acc = 0; per kernel in FKW order
 * acc += tap sum; then + bias, then the activation — whatever the batch
 * size, buffer addresses or which lanes the element landed in.  Compile
 * with -ffp-contract=off and without -ffast-math so no FMA contraction
 * or reassociation changes that sequence; a sample's bytes are then
 * independent of the batch it is served in.
 *
 * The kernel keeps no state: all scratch is passed in by the caller, so
 * concurrent calls from many threads are safe.
 */

#include <stdint.h>
#include <string.h>

#define DIRECT_MIN_WO 8

typedef float v8 __attribute__((vector_size(32)));
typedef float v4 __attribute__((vector_size(16)));

typedef struct {
    int32_t filters, channels, kh, kw;
    int32_t entries;       /* weights per kernel (taps per pattern) */
    int32_t stride;
    int32_t activation;    /* 0 none, 1 relu, 2 relu6 */
    int32_t num_patterns;  /* P: pattern ids run 1..P */
    int32_t union_size;    /* U: distinct tap positions over all patterns */
    const int32_t *offset;   /* (F+1) first kernel of each FKR position */
    const uint16_t *reorder; /* (F) original filter of each FKR position */
    const uint16_t *index;   /* (K) input channel of each kernel */
    const uint8_t *pattern;  /* (K) pattern id of each kernel */
    const float *weights;    /* (K, entries) */
    const int32_t *taps;     /* (P+1, entries) tap position r*kw + c per pattern */
    const int32_t *slots;    /* (kh*kw) union slot of each tap position, -1 if unused */
    const int32_t *union_taps; /* (U) tap position of each union slot */
    const float *bias;       /* (F) or NULL */
} fkw_layer;

static inline v8 load_v8(const float *p)
{
    v8 v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline v4 load_v4(const float *p)
{
    v4 v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline float epilogue(float v, float bias, int32_t activation)
{
    v = v + bias;
    if (activation == 1)
        v = v < 0.0f ? 0.0f : v;
    else if (activation == 2)
        v = v < 0.0f ? 0.0f : (v > 6.0f ? 6.0f : v);
    return v;
}

/*
 * Accumulate kernels [k0, k1) into NV vectors of type VT (W lanes each)
 * covering dst[0 .. W*NV), reading kernel k's tap t at
 * base + index[k] * cstride + off[pattern[k]][t]; then bias, activation
 * and one store.
 */
#define DEFINE_BLOCK(NAME, VT, W, NV)                                                 \
    static inline void NAME(const fkw_layer *L, int32_t k0, int32_t k1,              \
                            const float *base, int64_t cstride, const int64_t *off,  \
                            float bias, float *dst)                                  \
    {                                                                                \
        const int32_t E = L->entries;                                                \
        VT acc[NV];                                                                  \
        for (int j = 0; j < NV; ++j)                                                 \
            acc[j] = (VT){0};                                                        \
        if (E == 4) {                                                                \
            for (int32_t k = k0; k < k1; ++k) {                                      \
                const float *src = base + (int64_t)L->index[k] * cstride;            \
                const int64_t *o = off + L->pattern[k] * 4;                          \
                const float *w = L->weights + (int64_t)k * 4;                        \
                const float *a = src + o[0], *b = src + o[1];                        \
                const float *c = src + o[2], *d = src + o[3];                        \
                for (int j = 0; j < NV; ++j)                                         \
                    acc[j] += (w[0] * load_##VT(a + W * j) + w[1] * load_##VT(b + W * j)) \
                            + (w[2] * load_##VT(c + W * j) + w[3] * load_##VT(d + W * j)); \
            }                                                                        \
        } else {                                                                     \
            for (int32_t k = k0; k < k1; ++k) {                                      \
                const float *src = base + (int64_t)L->index[k] * cstride;            \
                const int64_t *o = off + L->pattern[k] * E;                          \
                const float *w = L->weights + (int64_t)k * E;                        \
                for (int j = 0; j < NV; ++j) {                                       \
                    VT s = w[0] * load_##VT(src + o[0] + W * j);                     \
                    for (int32_t t = 1; t < E; ++t)                                  \
                        s += w[t] * load_##VT(src + o[t] + W * j);                   \
                    acc[j] += s;                                                     \
                }                                                                    \
            }                                                                        \
        }                                                                            \
        float res[W * NV];                                                           \
        memcpy(res, acc, sizeof res);                                                \
        for (int i = 0; i < W * NV; ++i)                                             \
            dst[i] = epilogue(res[i], bias, L->activation);                          \
    }

DEFINE_BLOCK(block32, v8, 8, 4)
DEFINE_BLOCK(block16, v8, 8, 2)
DEFINE_BLOCK(block8, v8, 8, 1)
DEFINE_BLOCK(block4, v4, 4, 1)

/* Scalar tail: the same operation sequence as one vector lane. */
static void block1(const fkw_layer *L, int32_t k0, int32_t k1, const float *base,
                   int64_t cstride, const int64_t *off, float bias, float *dst)
{
    const int32_t E = L->entries;
    float acc = 0.0f;
    for (int32_t k = k0; k < k1; ++k) {
        const float *src = base + (int64_t)L->index[k] * cstride;
        const int64_t *o = off + L->pattern[k] * E;
        const float *w = L->weights + (int64_t)k * E;
        if (E == 4) {
            acc += (w[0] * src[o[0]] + w[1] * src[o[1]]) + (w[2] * src[o[2]] + w[3] * src[o[3]]);
        } else {
            float s = w[0] * src[o[0]];
            for (int32_t t = 1; t < E; ++t)
                s += w[t] * src[o[t]];
            acc += s;
        }
    }
    *dst = epilogue(acc, bias, L->activation);
}

/* One filter over one span of `len` contiguous outputs. */
static void span(const fkw_layer *L, int32_t k0, int32_t k1, const float *base,
                 int64_t cstride, const int64_t *off, float bias, float *dst, int64_t len)
{
    int64_t i = 0;
    for (; i + 32 <= len; i += 32)
        block32(L, k0, k1, base + i, cstride, off, bias, dst + i);
    if (i + 16 <= len) {
        block16(L, k0, k1, base + i, cstride, off, bias, dst + i);
        i += 16;
    }
    if (i + 8 <= len) {
        block8(L, k0, k1, base + i, cstride, off, bias, dst + i);
        i += 8;
    }
    if (i + 4 <= len) {
        block4(L, k0, k1, base + i, cstride, off, bias, dst + i);
        i += 4;
    }
    for (; i < len; ++i)
        block1(L, k0, k1, base + i, cstride, off, bias, dst + i);
}

static int use_direct(const fkw_layer *L, int64_t wo)
{
    return L->stride == 1 && wo >= DIRECT_MIN_WO;
}

/* Floats of im2col scratch fkw_conv needs for a (hp, wp) padded input. */
int64_t fkw_conv_scratch(const fkw_layer *L, int32_t hp, int32_t wp)
{
    int64_t ho = (hp - L->kh) / L->stride + 1, wo = (wp - L->kw) / L->stride + 1;
    if (use_direct(L, wo))
        return 0;
    return (int64_t)L->union_size * L->channels * ho * wo;
}

/*
 * xp:  (n, C, hp, wp) zero-padded input, contiguous float32.
 * out: (n, F, ho, wo) output, contiguous float32; every element written.
 * col: fkw_conv_scratch(L, hp, wp) floats (may be NULL when that is 0).
 */
void fkw_conv(const fkw_layer *L, const float *xp, int32_t n, int32_t hp, int32_t wp,
              float *out, float *col)
{
    const int32_t F = L->filters, C = L->channels, E = L->entries, S = L->stride;
    const int64_t ho = (hp - L->kh) / S + 1, wo = (wp - L->kw) / S + 1;
    const int64_t plane = ho * wo, in_plane = (int64_t)hp * wp;
    const int direct = use_direct(L, wo);
    /* tap offsets for this call's layout live on the stack (reentrancy) */
    int64_t off[(L->num_patterns + 1) * E];
    for (int32_t i = 0; i < (L->num_patterns + 1) * E; ++i) {
        int32_t pos = L->taps[i], r = pos / L->kw, c = pos % L->kw;
        off[i] = direct ? (int64_t)r * wp + c : (int64_t)L->slots[pos] * plane;
    }

    for (int32_t s = 0; s < n; ++s) {
        const float *x = xp + (int64_t)s * C * in_plane;
        float *y = out + (int64_t)s * F * plane;
        if (!direct) {
            for (int32_t u = 0; u < L->union_size; ++u) {
                int32_t pos = L->union_taps[u], r = pos / L->kw, c = pos % L->kw;
                for (int32_t ch = 0; ch < C; ++ch) {
                    const float *src = x + ch * in_plane + (int64_t)r * wp + c;
                    float *dst = col + ((int64_t)ch * L->union_size + u) * plane;
                    for (int64_t oh = 0; oh < ho; ++oh) {
                        const float *row = src + oh * S * wp;
                        if (S == 1) {
                            memcpy(dst + oh * wo, row, (size_t)wo * sizeof(float));
                        } else {
                            for (int64_t ow = 0; ow < wo; ++ow)
                                dst[oh * wo + ow] = row[ow * S];
                        }
                    }
                }
            }
        }
        for (int32_t pos = 0; pos < F; ++pos) {
            const int32_t k0 = L->offset[pos], k1 = L->offset[pos + 1];
            const float bias = L->bias ? L->bias[L->reorder[pos]] : 0.0f;
            float *dst = y + (int64_t)L->reorder[pos] * plane;
            if (direct) {
                for (int64_t oh = 0; oh < ho; ++oh)
                    span(L, k0, k1, x + oh * wp, in_plane, off, bias, dst + oh * wo, wo);
            } else {
                span(L, k0, k1, col, (int64_t)L->union_size * plane, off, bias, dst, plane);
            }
        }
    }
}
