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
 * output is produced block by block: a block is a run of contiguous
 * outputs, or the same run in two or four consecutive output rows, held
 * in vector registers while every kernel of the filter is accumulated
 * into it (a branch-free 4-tap body, or a generic tap loop for other
 * entry counts); then bias + activation are applied and the block is
 * stored once.  Every layout choice below is made here from the layer
 * shape, never by a caller:
 *
 *   direct  stride 1 and output rows of at least DIRECT_MIN_WO elements:
 *           blocks read straight from the padded sample (tap (r, c) of
 *           row oh is row oh + r shifted by c) — no im2col copy.  Rows
 *           are computed several per pass so each kernel's channel
 *           index, pattern offsets and weights load once per pass, not
 *           once per row: two rows of 32-wide blocks when rows are at
 *           least 32 wide, otherwise four rows of 16- and 8-wide blocks;
 *           the rest of each row, and leftover rows, run as spans;
 *   im2col  otherwise (stride 2, or tiny planes such as 2x2 and 4x4):
 *           the pattern-union taps of the sample are gathered into a
 *           (C, U, Ho*Wo) column block (a kernel's taps sit next to each
 *           other) and a span is the whole output plane, so tiny planes
 *           pay the per-kernel bookkeeping once per plane, not per row.
 *           The gather runs through a per-call table of source offsets
 *           (-1 in the padding) as one flat loop per channel — per-row
 *           loops cost more than the copy on 2- and 4-wide rows — and
 *           the block starts on a 64-byte boundary, so a 16-float
 *           column is one cache line, not two.
 *
 * Spans are cut into 32-, 16-, 8- and 4-wide blocks and a scalar tail.
 * 16 and 32 floats use 64-byte generic vectors: one zmm register on
 * AVX-512, two ymm on AVX2, four xmm on SSE or NEON — the compiler
 * splits them, so there is no platform switch (fkw_conv_vector_bits
 * reports which one this build got).
 *
 * Padding and scratch.  fkw_conv takes the unpadded (n, C, h, w) input.
 * A direct layer with padding zero-pads each sample into the caller's
 * scratch; an im2col layer gathers its columns straight from the
 * unpadded sample, writing 0 where a tap falls in the padding, and keeps
 * its gather table after them.  Either way the scratch holds one sample
 * (fkw_conv_scratch does not depend on n) and is reused for the next.
 *
 * Determinism contract: every output element is computed by the same
 * sequence of IEEE operations — acc = 0; per kernel in FKW order
 * acc += ((w0*a + w1*b) + (w2*c + w3*d)) (other entry counts: s = w0*a,
 * s += wt*tap in tap order, acc += s); then + bias (0 without one), then
 * the activation (relu: v < 0 ? 0 : v) — whatever the batch size,
 * buffer addresses, block shape or which lane the element landed in.
 * Compile with -ffp-contract=off and without -ffast-math so no FMA
 * contraction or reassociation changes that sequence; a sample's bytes
 * are then independent of the batch it is served in.
 *
 * The kernel keeps no state: all scratch is passed in by the caller, so
 * concurrent calls from many threads are safe.
 */

#include <stdint.h>
#include <string.h>

#define DIRECT_MIN_WO 8

typedef float v16 __attribute__((vector_size(64)));
typedef float v8 __attribute__((vector_size(32)));
typedef float v4 __attribute__((vector_size(16)));

typedef struct {
    int32_t filters, channels, kh, kw;
    int32_t entries;       /* weights per kernel (taps per pattern) */
    int32_t stride;
    int32_t padding;       /* zero border added on each side of H and W */
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

/* Width in bits of the machine vectors the 64-byte blocks compile to. */
int32_t fkw_conv_vector_bits(void)
{
#if defined(__AVX512F__)
    return 512;
#elif defined(__AVX__)
    return 256;
#elif defined(__SSE2__) || defined(__ARM_NEON)
    return 128;
#else
    return 32;
#endif
}

static inline v16 load_v16(const float *p)
{
    v16 v;
    memcpy(&v, p, sizeof v);
    return v;
}

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
 * Accumulate kernels [k0, k1) into NR rows of NV vectors of type VT
 * (W lanes each): row r covers dst[r*dstride .. r*dstride + W*NV) and
 * reads kernel k's tap t at
 * base + index[k] * cstride + r * rstride + off[pattern[k]][t];
 * then bias, activation and one store per row.
 */
#define DEFINE_BLOCK(NAME, VT, W, NV, NR)                                             \
    static inline void NAME(const fkw_layer *L, int32_t k0, int32_t k1,              \
                            const float *base, int64_t cstride, int64_t rstride,     \
                            const int64_t *off, float bias, float *dst,              \
                            int64_t dstride)                                         \
    {                                                                                \
        const int32_t E = L->entries;                                                \
        VT acc[NR][NV];                                                              \
        for (int r = 0; r < NR; ++r)                                                 \
            for (int j = 0; j < NV; ++j)                                             \
                acc[r][j] = (VT){0};                                                 \
        if (E == 4) {                                                                \
            for (int32_t k = k0; k < k1; ++k) {                                      \
                const float *src = base + (int64_t)L->index[k] * cstride;            \
                const int64_t *o = off + L->pattern[k] * 4;                          \
                const float *w = L->weights + (int64_t)k * 4;                        \
                const float w0 = w[0], w1 = w[1], w2 = w[2], w3 = w[3];              \
                const float *a = src + o[0], *b = src + o[1];                        \
                const float *c = src + o[2], *d = src + o[3];                        \
                for (int r = 0; r < NR; ++r)                                         \
                    for (int j = 0; j < NV; ++j) {                                   \
                        const int64_t q = r * rstride + W * j;                       \
                        acc[r][j] += (w0 * load_##VT(a + q) + w1 * load_##VT(b + q)) \
                                   + (w2 * load_##VT(c + q) + w3 * load_##VT(d + q)); \
                    }                                                                \
            }                                                                        \
        } else {                                                                     \
            for (int32_t k = k0; k < k1; ++k) {                                      \
                const float *src = base + (int64_t)L->index[k] * cstride;            \
                const int64_t *o = off + L->pattern[k] * E;                          \
                const float *w = L->weights + (int64_t)k * E;                        \
                for (int r = 0; r < NR; ++r)                                         \
                    for (int j = 0; j < NV; ++j) {                                   \
                        const float *p = src + r * rstride + W * j;                  \
                        VT s = w[0] * load_##VT(p + o[0]);                           \
                        for (int32_t t = 1; t < E; ++t)                              \
                            s += w[t] * load_##VT(p + o[t]);                         \
                        acc[r][j] += s;                                              \
                    }                                                                \
            }                                                                        \
        }                                                                            \
        for (int r = 0; r < NR; ++r) {                                               \
            float res[W * NV];                                                       \
            memcpy(res, acc[r], sizeof res);                                         \
            for (int i = 0; i < W * NV; ++i)                                         \
                dst[r * dstride + i] = epilogue(res[i], bias, L->activation);        \
        }                                                                            \
    }

DEFINE_BLOCK(block32x2, v16, 16, 2, 2)
DEFINE_BLOCK(block16x4, v16, 16, 1, 4)
DEFINE_BLOCK(block8x4, v8, 8, 1, 4)
DEFINE_BLOCK(block32, v16, 16, 2, 1)
DEFINE_BLOCK(block16, v16, 16, 1, 1)
DEFINE_BLOCK(block8, v8, 8, 1, 1)
DEFINE_BLOCK(block4, v4, 4, 1, 1)

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
        block32(L, k0, k1, base + i, cstride, 0, off, bias, dst + i, 0);
    if (i + 16 <= len) {
        block16(L, k0, k1, base + i, cstride, 0, off, bias, dst + i, 0);
        i += 16;
    }
    if (i + 8 <= len) {
        block8(L, k0, k1, base + i, cstride, 0, off, bias, dst + i, 0);
        i += 8;
    }
    if (i + 4 <= len) {
        block4(L, k0, k1, base + i, cstride, 0, off, bias, dst + i, 0);
        i += 4;
    }
    for (; i < len; ++i)
        block1(L, k0, k1, base + i, cstride, off, bias, dst + i);
}

/*
 * `nr` direct rows of `len` outputs per pass (dst rows `dstride` apart,
 * input rows `rstride`): two rows of 32-wide blocks when nr is 2, four
 * rows of 16- and 8-wide blocks when it is 4; then each row's tail as a
 * span.  A kernel's channel index, pattern offsets and weights are
 * loaded once per block, not once per row.
 */
static void row_block(const fkw_layer *L, int32_t k0, int32_t k1, const float *base,
                      int64_t cstride, int64_t rstride, const int64_t *off, float bias,
                      float *dst, int64_t dstride, int64_t len, int nr)
{
    int64_t i = 0;
    if (nr == 2) {
        for (; i + 32 <= len; i += 32)
            block32x2(L, k0, k1, base + i, cstride, rstride, off, bias, dst + i, dstride);
    } else {
        for (; i + 16 <= len; i += 16)
            block16x4(L, k0, k1, base + i, cstride, rstride, off, bias, dst + i, dstride);
        if (i + 8 <= len) {
            block8x4(L, k0, k1, base + i, cstride, rstride, off, bias, dst + i, dstride);
            i += 8;
        }
    }
    for (int r = 0; i < len && r < nr; ++r)
        span(L, k0, k1, base + r * rstride + i, cstride, off, bias, dst + r * dstride + i,
             len - i);
}

static int use_direct(const fkw_layer *L, int64_t wo)
{
    return L->stride == 1 && wo >= DIRECT_MIN_WO;
}

/* Floats of per-call scratch fkw_conv needs for an (h, w) input: one
 * sample's padded plane for a direct layer (none without padding), one
 * sample's im2col columns otherwise.  Independent of the batch size. */
int64_t fkw_conv_scratch(const fkw_layer *L, int32_t h, int32_t w)
{
    const int64_t hp = h + 2 * L->padding, wp = w + 2 * L->padding;
    const int64_t ho = (hp - L->kh) / L->stride + 1, wo = (wp - L->kw) / L->stride + 1;
    if (use_direct(L, wo))
        return L->padding ? L->channels * hp * wp : 0;
    /* columns, their gather table, and one cache line to start the
     * columns on a 64-byte boundary */
    return (int64_t)L->union_size * (L->channels + 1) * ho * wo + 16;
}

/* dst[0 .. n) = src[0 .. n) in whole vectors first: rows here are short,
 * so a memcpy call or a generic vectorised loop costs more than the copy. */
static inline void copy_row(float *dst, const float *src, int64_t n)
{
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const v16 v = load_v16(src + j);
        memcpy(dst + j, &v, sizeof v);
    }
    if (j + 8 <= n) {
        const v8 v = load_v8(src + j);
        memcpy(dst + j, &v, sizeof v);
        j += 8;
    }
    for (; j < n; ++j)
        dst[j] = src[j];
}

/* Write sample x (C, h, w) with its zero border into the (C, hp, wp)
 * plane xp, one channel after the other. */
static void pad_sample(const fkw_layer *L, const float *x, int32_t h, int32_t w, float *xp)
{
    const int64_t P = L->padding, wp = w + 2 * P;
    for (int32_t ch = 0; ch < L->channels; ++ch) {
        for (int64_t j = 0; j < P * wp; ++j)
            xp[j] = 0.0f; /* top rows */
        xp += P * wp;
        for (int64_t r = 0; r < h; ++r, xp += wp, x += w) {
            for (int64_t j = 0; j < P; ++j)
                xp[j] = xp[P + w + j] = 0.0f;
            copy_row(xp + P, x, w);
        }
        for (int64_t j = 0; j < P * wp; ++j)
            xp[j] = 0.0f; /* bottom rows */
        xp += P * wp;
    }
}

/* The im2col gather table: for tap u at output position e (u-major),
 * the source offset within one unpadded (h, w) channel plane, or -1
 * where the tap falls in the padding.  Built once per call. */
static void im2col_table(const fkw_layer *L, int32_t h, int32_t w, int64_t ho, int64_t wo,
                         int32_t *tbl)
{
    const int64_t P = L->padding, S = L->stride;
    for (int32_t u = 0; u < L->union_size; ++u) {
        const int64_t r = L->union_taps[u] / L->kw, c = L->union_taps[u] % L->kw;
        for (int64_t oh = 0; oh < ho; ++oh) {
            const int64_t ih = oh * S + r - P;
            for (int64_t ow = 0; ow < wo; ++ow) {
                const int64_t iw = ow * S + c - P;
                *tbl++ = ih >= 0 && ih < h && iw >= 0 && iw < w ? (int32_t)(ih * w + iw) : -1;
            }
        }
    }
}

/* Gather sample x (C, h*w) into col (C, U, ho*wo) through the table:
 * one flat loop per channel, however small the plane. */
static void im2col_sample(const fkw_layer *L, const float *x, int64_t in_plane, int64_t len,
                          const int32_t *tbl, float *col)
{
    for (int32_t ch = 0; ch < L->channels; ++ch, x += in_plane, col += len)
        for (int64_t i = 0; i < len; ++i)
            col[i] = tbl[i] < 0 ? 0.0f : x[tbl[i]];
}

/*
 * x:       (n, C, h, w) unpadded input, contiguous float32.
 * out:     (n, F, ho, wo) output, contiguous float32; every element written.
 * scratch: fkw_conv_scratch(L, h, w) floats (may be NULL when that is 0).
 */
void fkw_conv(const fkw_layer *L, const float *x, int32_t n, int32_t h, int32_t w,
              float *out, float *scratch)
{
    const int32_t F = L->filters, C = L->channels, E = L->entries, S = L->stride;
    const int64_t P = L->padding, hp = h + 2 * P, wp = w + 2 * P;
    const int64_t ho = (hp - L->kh) / S + 1, wo = (wp - L->kw) / S + 1;
    const int64_t plane = ho * wo, in_plane = hp * wp;
    const int direct = use_direct(L, wo);
    const int nr = wo >= 32 ? 2 : 4; /* rows per direct pass */
    /* tap offsets for this call's layout live on the stack (reentrancy) */
    int64_t off[(L->num_patterns + 1) * E];
    for (int32_t i = 0; i < (L->num_patterns + 1) * E; ++i) {
        int32_t pos = L->taps[i], r = pos / L->kw, c = pos % L->kw;
        off[i] = direct ? (int64_t)r * wp + c : (int64_t)L->slots[pos] * plane;
    }

    /* im2col columns start on a 64-byte boundary (a 16-float column
     * block is then one cache line); their gather table follows them */
    float *col = NULL;
    int32_t *tbl = NULL;
    if (!direct) {
        col = (float *)(((uintptr_t)scratch + 63) & ~(uintptr_t)63);
        tbl = (int32_t *)(col + (int64_t)L->union_size * C * plane);
        im2col_table(L, h, w, ho, wo, tbl);
    }

    for (int32_t s = 0; s < n; ++s) {
        const float *xs = x + (int64_t)s * C * h * w;
        float *y = out + (int64_t)s * F * plane;
        /* what the spans read: the (padded) sample, or its columns */
        const float *xp = xs;
        if (!direct) {
            im2col_sample(L, xs, (int64_t)h * w, L->union_size * plane, tbl, col);
            xp = col;
        } else if (P) {
            pad_sample(L, xs, h, w, scratch);
            xp = scratch;
        }
        for (int32_t pos = 0; pos < F; ++pos) {
            const int32_t k0 = L->offset[pos], k1 = L->offset[pos + 1];
            const float bias = L->bias ? L->bias[L->reorder[pos]] : 0.0f;
            float *dst = y + (int64_t)L->reorder[pos] * plane;
            if (direct) {
                int64_t oh = 0;
                for (; oh + nr <= ho; oh += nr)
                    row_block(L, k0, k1, xp + oh * wp, in_plane, wp, off, bias, dst + oh * wo,
                              wo, wo, nr);
                for (; oh < ho; ++oh)
                    span(L, k0, k1, xp + oh * wp, in_plane, off, bias, dst + oh * wo, wo);
            } else {
                span(L, k0, k1, xp, (int64_t)L->union_size * plane, off, bias, dst, plane);
            }
        }
    }
}
