/* Fused histogram / split-scan kernels for the tree growers.
 *
 * Bitwise contract: every function reproduces the pure-numpy reference
 * in repro/native/fallback.py bit for bit, including IEEE corner cases.
 * The rules that make that possible (verified empirically against
 * numpy and asserted by tests/native/test_kernel_parity.py):
 *
 *  - np.bincount(weights=...) accumulates each bucket sequentially in
 *    input order starting from +0.0 -> plain `+=` loops in row order;
 *  - np.cumsum is a sequential left-to-right accumulation;
 *  - np.ndarray.sum(axis=0) reduces sequentially over the axis,
 *    starting from +0.0 (so -0.0 terms behave like numpy's) -- when
 *    the summed axis is the reduce's inner loop (e.g. the only axis
 *    left), numpy sums it pairwise instead (pairwise_sum below);
 *  - np.power(x, 2) takes numpy's fast path and equals x*x;
 *  - np.argmax scans in row-major order, strictly-greater replaces,
 *    and the FIRST NaN wins and stops the scan;
 *  - elementwise arithmetic is replicated with the same association
 *    as the numpy expressions (noted per loop below).
 *
 * Compiled with -ffp-contract=off so no FMA contraction can change
 * intermediate roundings relative to numpy's scalar SSE2 arithmetic.
 * No numpy headers: arrays arrive as C-contiguous buffers (PyBUF_SIMPLE
 * fails loudly on anything non-contiguous).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* ------------------------------------------------------------------ */
/* grad/hess[/count] histograms of one tree node.
 *
 * args: codes (y*), itemsize (i), d (n), idx int64 (y*), g float64 (y*),
 *       h float64 (y*), features int64 (y*), nbmax (n), need_cnt (i),
 *       out float64[P, F, nbmax] zeroed (w*)
 *
 * Equivalent numpy: one flat np.bincount over disjoint
 * (part, feature, bin) key ranges -- each bucket accumulates the same
 * rows in the same order as this row-major loop.
 */
static PyObject *
py_build_hists(PyObject *self, PyObject *args)
{
    Py_buffer codes, idx, g, h, feats, out;
    int itemsize, need_cnt;
    Py_ssize_t d, nbmax;

    if (!PyArg_ParseTuple(args, "y*iny*y*y*y*niw*",
                          &codes, &itemsize, &d, &idx, &g, &h, &feats,
                          &nbmax, &need_cnt, &out))
        return NULL;

    {
        const int64_t *idxp = (const int64_t *)idx.buf;
        const double *gp = (const double *)g.buf;
        const double *hp = (const double *)h.buf;
        const int64_t *fp = (const int64_t *)feats.buf;
        double *og = (double *)out.buf;
        const Py_ssize_t ni = idx.len / (Py_ssize_t)sizeof(int64_t);
        const Py_ssize_t F = feats.len / (Py_ssize_t)sizeof(int64_t);
        double *oh = og + F * nbmax;
        double *oc = need_cnt ? og + 2 * F * nbmax : NULL;
        Py_ssize_t r, j;

        if (itemsize == 1) {
            const uint8_t *cp = (const uint8_t *)codes.buf;
            for (r = 0; r < ni; r++) {
                const uint8_t *row = cp + (Py_ssize_t)idxp[r] * d;
                const double gv = gp[r], hv = hp[r];
                for (j = 0; j < F; j++) {
                    const Py_ssize_t o = j * nbmax + (Py_ssize_t)row[fp[j]];
                    og[o] += gv;
                    oh[o] += hv;
                    if (oc)
                        oc[o] += 1.0;
                }
            }
        } else {
            const uint16_t *cp = (const uint16_t *)codes.buf;
            for (r = 0; r < ni; r++) {
                const uint16_t *row = cp + (Py_ssize_t)idxp[r] * d;
                const double gv = gp[r], hv = hp[r];
                for (j = 0; j < F; j++) {
                    const Py_ssize_t o = j * nbmax + (Py_ssize_t)row[fp[j]];
                    og[o] += gv;
                    oh[o] += hv;
                    if (oc)
                        oc[o] += 1.0;
                }
            }
        }
    }

    PyBuffer_Release(&codes);
    PyBuffer_Release(&idx);
    PyBuffer_Release(&g);
    PyBuffer_Release(&h);
    PyBuffer_Release(&feats);
    PyBuffer_Release(&out);
    Py_RETURN_NONE;
}

/* soft_threshold(G, alpha)^2 / Hreg, replicating
 * np.sign(G) * np.maximum(np.abs(G) - alpha, 0.0) exactly:
 * np.maximum propagates NaN; np.sign maps +-0.0 -> 0.0 and NaN -> NaN. */
static inline double
score_term(double G, double Hreg, double alpha)
{
    double a = fabs(G) - alpha;
    double mx = (a != a) ? a : (a > 0.0 ? a : 0.0);
    double sgn = (G > 0.0) ? 1.0 : ((G < 0.0) ? -1.0 : ((G == G) ? 0.0 : G));
    double st = sgn * mx;
    return (st * st) / Hreg;
}

/* ------------------------------------------------------------------ */
/* Row-major flat argmax over a (F, T) grid whose skipped cells are
 * -inf: best starts at -inf on flat cell 0 (an all -inf grid's argmax),
 * strictly-greater replaces, and the first NaN wins.  Returns 1 when
 * the scan must stop (NaN). */
static inline int
argmax_update(double v, Py_ssize_t cell, double *best, Py_ssize_t *bi)
{
    if (v > *best || isnan(v)) {
        *best = v;
        *bi = cell;
        return isnan(v);
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* best (gain, feature, threshold) over the cumulative histograms of
 * one node, or the number of valid thresholds per feature.
 *
 * args: hists float64[P, F, nbmax] (y*), P (i), F (n), nbmax (n),
 *       n_bins_f int64[F] (y*), G (d), H (d), parent (d),
 *       min_child_weight (d), reg_alpha (d), reg_lambda (d),
 *       min_samples_leaf (n), n_idx (n),
 *       picks int64[F] (y*, ignored when has_picks == 0), has_picks (i),
 *       counts int64[F] zeroed (w*, written when count_only == 1),
 *       count_only (i)
 * returns (best_gain, j, t) -- j indexes into the candidate features --
 * or None in count_only mode.  With picks, feature j competes with only
 * its picks[j]-th valid threshold (none when picks[j] < 0).
 *
 * Numpy reference: cumsum -> validity masks -> gains assembled as
 * ((score(GL,HL) + score(GR,HR)) - parent) * 0.5 -> where(valid, g,
 * -inf) -> flat argmax (first-NaN-wins).
 */
static PyObject *
py_best_split_scan(PyObject *self, PyObject *args)
{
    Py_buffer hists, nbf, picks, counts;
    int P, has_picks, count_only;
    Py_ssize_t F, nbmax, msl, n_idx;
    double G, H, parent, mcw, alpha, lam;

    if (!PyArg_ParseTuple(args, "y*inny*ddddddnny*iw*i",
                          &hists, &P, &F, &nbmax, &nbf, &G, &H, &parent,
                          &mcw, &alpha, &lam, &msl, &n_idx, &picks,
                          &has_picks, &counts, &count_only))
        return NULL;

    {
        const double *hg = (const double *)hists.buf;
        const double *hh = hg + F * nbmax;
        const double *hc = (P == 3) ? hg + 2 * F * nbmax : NULL;
        const int64_t *nb = (const int64_t *)nbf.buf;
        const int64_t *pk = has_picks ? (const int64_t *)picks.buf : NULL;
        int64_t *cnt = count_only ? (int64_t *)counts.buf : NULL;
        const Py_ssize_t T = nbmax - 1;
        double best = -INFINITY;
        Py_ssize_t bi = 0;
        int any_valid = 0;
        Py_ssize_t j, t;

        for (j = 0; j < F && T > 0; j++) {
            const double *rg = hg + j * nbmax;
            const double *rh = hh + j * nbmax;
            const double *rc = hc ? hc + j * nbmax : NULL;
            const Py_ssize_t tmax = (Py_ssize_t)nb[j] - 1;
            const int64_t want = pk ? pk[j] : 0;
            int64_t seen = 0;
            double gl = 0.0, hl = 0.0, cl = 0.0;

            if (want < 0)
                continue;
            for (t = 0; t < T; t++) {
                double hr, gr, sl, sr, v;

                gl += rg[t];
                hl += rh[t];
                if (rc)
                    cl += rc[t];
                hr = H - hl;
                if (!((hl >= mcw) && (hr >= mcw) && (t < tmax)))
                    continue;
                if (rc && !((cl >= (double)msl)
                            && ((double)n_idx - cl >= (double)msl)))
                    continue;
                if (cnt) {
                    cnt[j]++;
                    continue;
                }
                if (pk && seen++ != want)
                    continue;
                /* same association as gains = score(GL,HL);
                 * gains += score(GR,HR); gains -= parent; gains *= 0.5 */
                gr = G - gl;
                sl = score_term(gl, hl + lam, alpha);
                sr = score_term(gr, hr + lam, alpha);
                v = ((sl + sr) - parent) * 0.5;
                any_valid = 1;
                if (argmax_update(v, j * T + t, &best, &bi))
                    goto done;
                if (pk)
                    break;
            }
        }
done:
        PyBuffer_Release(&hists);
        PyBuffer_Release(&nbf);
        PyBuffer_Release(&picks);
        PyBuffer_Release(&counts);
        if (count_only)
            Py_RETURN_NONE;
        if (!any_valid) /* the reference's `not valid.any()` early exit */
            return Py_BuildValue("dnn", 0.0, (Py_ssize_t)-1, (Py_ssize_t)-1);
        return Py_BuildValue("dnn", best, bi / T, bi % T);
    }
}

/* numpy's pairwise summation (DOUBLE_pairwise_sum in umath), which a
 * reduce runs when the summed axis is its inner loop */
static double
pairwise_sum(const double *a, Py_ssize_t n)
{
    Py_ssize_t i;

    if (n < 8) {
        double res = -0.0;
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        for (i = 0; i < 8; i++)
            r[i] = a[i];
        for (i = 8; i < n - (n % 8); i += 8) {
            r[0] += a[i + 0];
            r[1] += a[i + 1];
            r[2] += a[i + 2];
            r[3] += a[i + 3];
            r[4] += a[i + 4];
            r[5] += a[i + 5];
            r[6] += a[i + 6];
            r[7] += a[i + 7];
        }
        res = ((r[0] + r[1]) + (r[2] + r[3]))
              + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    {
        Py_ssize_t n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
    }
}

/* class-axis sum in the order numpy reduces the (F, T, K) grid:
 * left to right, or pairwise when the grid is a single cell */
static inline double
class_sum(const double *a, Py_ssize_t K, int pairwise)
{
    double res = -0.0;
    Py_ssize_t k;

    if (pairwise)
        return pairwise_sum(a, K);
    for (k = 0; k < K; k++)
        res += a[k];
    return res;
}

/* gini impurity times total count of one class-count vector:
 * tot = sum(c); p = c / maximum(tot, eps); (1.0 - sum(p*p)) * tot */
static inline double
gini_weighted(const double *c, double *sq, Py_ssize_t K, int pairwise,
              double eps)
{
    const double tot = class_sum(c, K, pairwise);
    /* np.maximum propagates NaN */
    const double safe = (tot != tot || tot >= eps) ? tot : eps;
    Py_ssize_t k;

    for (k = 0; k < K; k++) {
        const double p = c[k] / safe;
        sq[k] = p * p;
    }
    return (1.0 - class_sum(sq, K, pairwise)) * tot;
}

/* ------------------------------------------------------------------ */
/* best gini (gain, feature, threshold) of a classification node, or the
 * number of valid thresholds per feature.
 *
 * args: joint float64[K, F, nbmax] (y*), K (n), F (n), nbmax (n),
 *       n_bins_f int64[F] (y*), total float64[K] (y*), n_idx (n),
 *       parent (d), min_samples_leaf (n), eps (d),
 *       picks int64[F] (y*, ignored when has_picks == 0), has_picks (i),
 *       counts int64[F] zeroed (w*, written when count_only == 1),
 *       count_only (i)
 * returns (best_gain, j, t) or None in count_only mode; picks as in
 * best_split_scan.
 *
 * Numpy reference (fallback.class_split_scan): CL = cumsum over bins,
 * nl = CL.sum(class axis), valid = nl >= msl & n_idx - nl >= msl &
 * t < nbf - 1, gains = (parent - gini(CL)) - gini(total - CL) ->
 * where(valid, g, -inf) -> flat argmax.  Every class-axis sum runs in
 * class_sum's order.
 */
static PyObject *
py_class_split_scan(PyObject *self, PyObject *args)
{
    Py_buffer joint, nbf, total, picks, counts;
    int has_picks, count_only;
    Py_ssize_t K, F, nbmax, n_idx, msl;
    double parent, eps;
    double *cl = NULL;
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "y*nnny*y*ndndy*iw*i",
                          &joint, &K, &F, &nbmax, &nbf, &total, &n_idx,
                          &parent, &msl, &eps, &picks, &has_picks,
                          &counts, &count_only))
        return NULL;

    {
        const double *jp = (const double *)joint.buf;
        const double *tot = (const double *)total.buf;
        const int64_t *nb = (const int64_t *)nbf.buf;
        const int64_t *pk = has_picks ? (const int64_t *)picks.buf : NULL;
        int64_t *cnt = count_only ? (int64_t *)counts.buf : NULL;
        const Py_ssize_t T = nbmax - 1;
        const int pairwise = (F == 1 && T == 1);
        double *cr, *sq;
        double best = -INFINITY;
        Py_ssize_t bi = 0;
        int any_valid = 0;
        Py_ssize_t j, t, k;

        cl = (double *)malloc((size_t)(3 * K) * sizeof(double));
        if (!cl) {
            PyErr_NoMemory();
            goto cleanup;
        }
        cr = cl + K;
        sq = cr + K;
        for (j = 0; j < F && T > 0; j++) {
            const Py_ssize_t tmax = (Py_ssize_t)nb[j] - 1;
            const int64_t want = pk ? pk[j] : 0;
            int64_t seen = 0;

            if (want < 0)
                continue;
            for (k = 0; k < K; k++)
                cl[k] = -0.0;
            for (t = 0; t < T; t++) {
                double nl, v;

                for (k = 0; k < K; k++)
                    cl[k] += jp[(k * F + j) * nbmax + t];
                nl = class_sum(cl, K, pairwise);
                if (!((nl >= (double)msl)
                      && ((double)n_idx - nl >= (double)msl)
                      && (t < tmax)))
                    continue;
                if (cnt) {
                    cnt[j]++;
                    continue;
                }
                if (pk && seen++ != want)
                    continue;
                for (k = 0; k < K; k++)
                    cr[k] = tot[k] - cl[k];
                /* same association as parent - imp(CL) - imp(CR) */
                v = (parent - gini_weighted(cl, sq, K, pairwise, eps))
                    - gini_weighted(cr, sq, K, pairwise, eps);
                any_valid = 1;
                if (argmax_update(v, j * T + t, &best, &bi))
                    goto found;
                if (pk)
                    break;
            }
        }
found:
        if (count_only) {
            Py_INCREF(Py_None);
            result = Py_None;
        } else if (!any_valid) {
            result = Py_BuildValue("dnn", 0.0, (Py_ssize_t)-1,
                                   (Py_ssize_t)-1);
        } else {
            result = Py_BuildValue("dnn", best, bi / T, bi % T);
        }
    }

cleanup:
    free(cl);
    PyBuffer_Release(&joint);
    PyBuffer_Release(&nbf);
    PyBuffer_Release(&total);
    PyBuffer_Release(&picks);
    PyBuffer_Release(&counts);
    return result;
}

/* ------------------------------------------------------------------ */
/* one whole level of an oblivious tree: node totals, joint
 * (node, feature, bin) histograms, summed per-node gains, per-feature
 * argmax and the sequential accept walk -- all fused.
 *
 * args: codes_f (y*, n x F gathered candidate columns), itemsize (i),
 *       node int64[n] (y*), grad float64[n] (y*), hess float64[n] (y*),
 *       n_bins_f int64[F] (y*), F (n), m (n), nbmax (n),
 *       min_child_weight (d), reg_lambda (d), eps (d)
 * returns (gain, j, t); j = -1 when no level split is accepted.
 */
static PyObject *
py_oblivious_level(PyObject *self, PyObject *args)
{
    Py_buffer codes, node, grad, hess, nbf;
    int itemsize;
    Py_ssize_t F, m, nbmax;
    double mcw, lam, eps;
    double *Gn = NULL, *hist = NULL, *total = NULL;
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "y*iy*y*y*y*nnnddd",
                          &codes, &itemsize, &node, &grad, &hess, &nbf,
                          &F, &m, &nbmax, &mcw, &lam, &eps))
        return NULL;

    {
        const int64_t *nd = (const int64_t *)node.buf;
        const double *gp = (const double *)grad.buf;
        const double *hp = (const double *)hess.buf;
        const int64_t *nb = (const int64_t *)nbf.buf;
        const Py_ssize_t n = node.len / (Py_ssize_t)sizeof(int64_t);
        const Py_ssize_t T = nbmax - 1;
        double *Hn, *hist2;
        double bestg = 0.0;
        Py_ssize_t bj = -1, bt = -1;
        Py_ssize_t r, j, t, k;

        Gn = (double *)calloc((size_t)(2 * m), sizeof(double));
        hist = (double *)calloc((size_t)(2 * m * F * nbmax), sizeof(double));
        total = (double *)calloc((size_t)(F * T), sizeof(double));
        if (!Gn || !hist || !total) {
            PyErr_NoMemory();
            goto cleanup;
        }
        Hn = Gn + m;
        hist2 = hist + m * F * nbmax;

        /* node totals + joint histograms, both accumulated in row
         * order per bucket (== np.bincount over concatenated keys) */
        if (itemsize == 1) {
            const uint8_t *cp = (const uint8_t *)codes.buf;
            for (r = 0; r < n; r++) {
                const Py_ssize_t nk = (Py_ssize_t)nd[r];
                const double gv = gp[r], hv = hp[r];
                const uint8_t *row = cp + r * F;
                double *bg = hist + nk * F * nbmax;
                double *bh = hist2 + nk * F * nbmax;
                Gn[nk] += gv;
                Hn[nk] += hv;
                for (j = 0; j < F; j++) {
                    const Py_ssize_t o = j * nbmax + (Py_ssize_t)row[j];
                    bg[o] += gv;
                    bh[o] += hv;
                }
            }
        } else {
            const uint16_t *cp = (const uint16_t *)codes.buf;
            for (r = 0; r < n; r++) {
                const Py_ssize_t nk = (Py_ssize_t)nd[r];
                const double gv = gp[r], hv = hp[r];
                const uint16_t *row = cp + r * F;
                double *bg = hist + nk * F * nbmax;
                double *bh = hist2 + nk * F * nbmax;
                Gn[nk] += gv;
                Hn[nk] += hv;
                for (j = 0; j < F; j++) {
                    const Py_ssize_t o = j * nbmax + (Py_ssize_t)row[j];
                    bg[o] += gv;
                    bh[o] += hv;
                }
            }
        }

        /* total[j,t] = sum over nodes of (valid ? gain : 0.0), node
         * order, starting from +0.0 (numpy's axis-0 reduce) */
        for (k = 0; k < m; k++) {
            /* parent = Gn**2 / (Hn + lam), numpy power-2 fast path */
            const double parentk = (Gn[k] * Gn[k]) / (Hn[k] + lam);
            const double Gk = Gn[k], Hk = Hn[k];
            for (j = 0; j < F; j++) {
                const double *bg = hist + (k * F + j) * nbmax;
                const double *bh = hist2 + (k * F + j) * nbmax;
                double *tj = total + j * T;
                double gl = 0.0, hl = 0.0;
                for (t = 0; t < T; t++) {
                    double hr, v;
                    gl += bg[t];
                    hl += bh[t];
                    hr = Hk - hl;
                    if (hl >= mcw && hr >= mcw) {
                        /* same association as gains = GL**2; /= HL+lam;
                         * tmp = GR**2; /= HR+lam; gains += tmp;
                         * gains -= parent; gains *= 0.5 */
                        double gr = Gk - gl;
                        double a = (gl * gl) / (hl + lam);
                        double b = (gr * gr) / (hr + lam);
                        v = ((a + b) - parentk) * 0.5;
                    } else {
                        v = 0.0;
                    }
                    tj[t] += v;
                }
            }
        }

        /* per-feature argmax over where(t_valid, total, -inf), then the
         * sequential accept walk: take feature j's best iff it beats
         * the running best by more than eps */
        for (j = 0; j < F; j++) {
            const double *tj = total + j * T;
            const Py_ssize_t tmax = (Py_ssize_t)nb[j] - 1;
            double mp = (0 < tmax) ? tj[0] : -INFINITY;
            Py_ssize_t mi = 0;
            if (!isnan(mp)) {
                for (t = 1; t < T; t++) {
                    const double v = (t < tmax) ? tj[t] : -INFINITY;
                    if (v > mp || isnan(v)) {
                        mp = v;
                        mi = t;
                        if (isnan(v))
                            break;
                    }
                }
            }
            if (mp > bestg + eps) {
                bestg = mp;
                bj = j;
                bt = mi;
            }
        }
        result = Py_BuildValue("dnn", bestg, bj, bt);
    }

cleanup:
    free(Gn);
    free(hist);
    free(total);
    PyBuffer_Release(&codes);
    PyBuffer_Release(&node);
    PyBuffer_Release(&grad);
    PyBuffer_Release(&hess);
    PyBuffer_Release(&nbf);
    return result;
}

/* ------------------------------------------------------------------ */
/* joint (class, feature, bin) count histograms of one node.
 *
 * args: codes (y*), itemsize (i), d (n), idx int64 (y*), yk int64 (y*),
 *       w float64 (y*, ignored when has_w == 0), has_w (i),
 *       features int64 (y*), nbmax (n),
 *       out float64[K, F, nbmax] zeroed (w*)
 *
 * Equivalent numpy: one flat np.bincount over yk*(F*nbmax) + j*nbmax +
 * code keys -- each bucket accumulates its rows in idx order, exactly
 * this row-major loop.  Unweighted accumulation adds 1.0 per row,
 * matching bincount's integer counts cast to float64 (every int count
 * below 2^53 is exact).
 */
static PyObject *
py_build_class_hists(PyObject *self, PyObject *args)
{
    Py_buffer codes, idx, yk, w, feats, out;
    int itemsize, has_w;
    Py_ssize_t d, nbmax;

    if (!PyArg_ParseTuple(args, "y*iny*y*y*iy*nw*",
                          &codes, &itemsize, &d, &idx, &yk, &w, &has_w,
                          &feats, &nbmax, &out))
        return NULL;

    {
        const int64_t *idxp = (const int64_t *)idx.buf;
        const int64_t *ykp = (const int64_t *)yk.buf;
        const double *wp = (const double *)w.buf;
        const int64_t *fp = (const int64_t *)feats.buf;
        double *op = (double *)out.buf;
        const Py_ssize_t ni = idx.len / (Py_ssize_t)sizeof(int64_t);
        const Py_ssize_t F = feats.len / (Py_ssize_t)sizeof(int64_t);
        Py_ssize_t r, j;

        if (itemsize == 1) {
            const uint8_t *cp = (const uint8_t *)codes.buf;
            for (r = 0; r < ni; r++) {
                const uint8_t *row = cp + (Py_ssize_t)idxp[r] * d;
                double *base = op + (Py_ssize_t)ykp[r] * F * nbmax;
                const double wv = has_w ? wp[r] : 1.0;
                for (j = 0; j < F; j++)
                    base[j * nbmax + (Py_ssize_t)row[fp[j]]] += wv;
            }
        } else {
            const uint16_t *cp = (const uint16_t *)codes.buf;
            for (r = 0; r < ni; r++) {
                const uint16_t *row = cp + (Py_ssize_t)idxp[r] * d;
                double *base = op + (Py_ssize_t)ykp[r] * F * nbmax;
                const double wv = has_w ? wp[r] : 1.0;
                for (j = 0; j < F; j++)
                    base[j * nbmax + (Py_ssize_t)row[fp[j]]] += wv;
            }
        }
    }

    PyBuffer_Release(&codes);
    PyBuffer_Release(&idx);
    PyBuffer_Release(&yk);
    PyBuffer_Release(&w);
    PyBuffer_Release(&feats);
    PyBuffer_Release(&out);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* batched binned-code descent over a packed tree ensemble, accumulated
 * into the caller's score matrix in place.
 *
 * args: codes (y*), itemsize (i), d (n), feature int64 (y*),
 *       threshold int64 (y*), left int64 (y*), right int64 (y*),
 *       value float64[total_nodes, V] (y*), V (n),
 *       tree_offset int64[n_trees + 1] (y*), tree_class int64 (y*),
 *       lr (d), out float64[n, K] (w*), K (n)
 *
 * Node arrays are the FlatEnsemble pack: child ids absolute, leaves
 * marked feature < 0, tree_offset[t] the root of tree t.  Per row the
 * trees run in order and each contributes one lr*value product + one
 * add per touched cell -- the exact per-cell operation chain of the
 * engines' historical `scores += lr * tree.predict(codes)` loop (numpy
 * adds tree-by-tree too, so per cell the order and the two roundings
 * match).  tree_class k >= 0 touches column k with value[leaf, 0];
 * -1 adds the whole V-row (forest-probability trees).  Descent is pure
 * integer compare (code <= threshold goes left), so leaf choice is
 * exact.
 */
static PyObject *
py_ensemble_predict(PyObject *self, PyObject *args)
{
    Py_buffer codes, feat, thr, left, right, value, toff, tcls, out;
    int itemsize;
    Py_ssize_t d, V, K;
    double lr;

    if (!PyArg_ParseTuple(args, "y*iny*y*y*y*y*ny*y*dw*n",
                          &codes, &itemsize, &d, &feat, &thr, &left, &right,
                          &value, &V, &toff, &tcls, &lr, &out, &K))
        return NULL;

    {
        const int64_t *fe = (const int64_t *)feat.buf;
        const int64_t *th = (const int64_t *)thr.buf;
        const int64_t *lf = (const int64_t *)left.buf;
        const int64_t *rt = (const int64_t *)right.buf;
        const double *val = (const double *)value.buf;
        const int64_t *off = (const int64_t *)toff.buf;
        const int64_t *cls = (const int64_t *)tcls.buf;
        double *op = (double *)out.buf;
        const Py_ssize_t ntrees = tcls.len / (Py_ssize_t)sizeof(int64_t);
        const Py_ssize_t n = (K > 0)
            ? out.len / ((Py_ssize_t)sizeof(double) * K) : 0;
        Py_ssize_t r, t, c;

        if (itemsize == 1) {
            const uint8_t *cp = (const uint8_t *)codes.buf;
            for (r = 0; r < n; r++) {
                const uint8_t *row = cp + r * d;
                double *orow = op + r * K;
                for (t = 0; t < ntrees; t++) {
                    int64_t node = off[t];
                    while (fe[node] >= 0)
                        node = ((int64_t)row[fe[node]] <= th[node])
                            ? lf[node] : rt[node];
                    {
                        const double *v = val + (Py_ssize_t)node * V;
                        const int64_t k = cls[t];
                        if (k < 0)
                            for (c = 0; c < V; c++)
                                orow[c] += lr * v[c];
                        else
                            orow[k] += lr * v[0];
                    }
                }
            }
        } else {
            const uint16_t *cp = (const uint16_t *)codes.buf;
            for (r = 0; r < n; r++) {
                const uint16_t *row = cp + r * d;
                double *orow = op + r * K;
                for (t = 0; t < ntrees; t++) {
                    int64_t node = off[t];
                    while (fe[node] >= 0)
                        node = ((int64_t)row[fe[node]] <= th[node])
                            ? lf[node] : rt[node];
                    {
                        const double *v = val + (Py_ssize_t)node * V;
                        const int64_t k = cls[t];
                        if (k < 0)
                            for (c = 0; c < V; c++)
                                orow[c] += lr * v[c];
                        else
                            orow[k] += lr * v[0];
                    }
                }
            }
        }
    }

    PyBuffer_Release(&codes);
    PyBuffer_Release(&feat);
    PyBuffer_Release(&thr);
    PyBuffer_Release(&left);
    PyBuffer_Release(&right);
    PyBuffer_Release(&value);
    PyBuffer_Release(&toff);
    PyBuffer_Release(&tcls);
    PyBuffer_Release(&out);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* oblivious-table lookup over a packed symmetric-tree ensemble:
 * per-level bit pack of the leaf index + leaf-table gather, accumulated
 * into the caller's score matrix in place.
 *
 * args: codes (y*), itemsize (i), d (n), features int64 (y*),
 *       thresholds int64 (y*), level_offset int64[n_trees + 1] (y*),
 *       leaf_values float64 flat (y*), leaf_offset int64[n_trees + 1]
 *       (y*), tree_class int64 (y*), lr (d), out float64[n, K] (w*),
 *       K (n)
 *
 * FlatOblivious pack: tree t's per-depth splits are levels
 * level_offset[t]..level_offset[t+1] and its 2^depth leaf table starts
 * at leaf_offset[t].  Leaf index is the exact integer bit pack of
 * ObliviousTree.leaf_index ((code > threshold) << lvl); the accumulate
 * is one lr*leaf product + one add per (row, tree), tree order -- the
 * engines' historical per-cell chain.
 */
static PyObject *
py_oblivious_predict(PyObject *self, PyObject *args)
{
    Py_buffer codes, feat, thr, loff, leaf, lfoff, tcls, out;
    int itemsize;
    Py_ssize_t d, K;
    double lr;

    if (!PyArg_ParseTuple(args, "y*iny*y*y*y*y*y*dw*n",
                          &codes, &itemsize, &d, &feat, &thr, &loff, &leaf,
                          &lfoff, &tcls, &lr, &out, &K))
        return NULL;

    {
        const int64_t *fe = (const int64_t *)feat.buf;
        const int64_t *th = (const int64_t *)thr.buf;
        const int64_t *lo = (const int64_t *)loff.buf;
        const double *lv = (const double *)leaf.buf;
        const int64_t *fo = (const int64_t *)lfoff.buf;
        const int64_t *cls = (const int64_t *)tcls.buf;
        double *op = (double *)out.buf;
        const Py_ssize_t ntrees = tcls.len / (Py_ssize_t)sizeof(int64_t);
        const Py_ssize_t n = (K > 0)
            ? out.len / ((Py_ssize_t)sizeof(double) * K) : 0;
        Py_ssize_t r, t, l;

        if (itemsize == 1) {
            const uint8_t *cp = (const uint8_t *)codes.buf;
            for (r = 0; r < n; r++) {
                const uint8_t *row = cp + r * d;
                double *orow = op + r * K;
                for (t = 0; t < ntrees; t++) {
                    int64_t idx = 0;
                    const Py_ssize_t l0 = (Py_ssize_t)lo[t];
                    const Py_ssize_t l1 = (Py_ssize_t)lo[t + 1];
                    for (l = l0; l < l1; l++)
                        idx |= (int64_t)((int64_t)row[fe[l]] > th[l])
                            << (l - l0);
                    orow[cls[t]] += lr * lv[(Py_ssize_t)fo[t] + idx];
                }
            }
        } else {
            const uint16_t *cp = (const uint16_t *)codes.buf;
            for (r = 0; r < n; r++) {
                const uint16_t *row = cp + r * d;
                double *orow = op + r * K;
                for (t = 0; t < ntrees; t++) {
                    int64_t idx = 0;
                    const Py_ssize_t l0 = (Py_ssize_t)lo[t];
                    const Py_ssize_t l1 = (Py_ssize_t)lo[t + 1];
                    for (l = l0; l < l1; l++)
                        idx |= (int64_t)((int64_t)row[fe[l]] > th[l])
                            << (l - l0);
                    orow[cls[t]] += lr * lv[(Py_ssize_t)fo[t] + idx];
                }
            }
        }
    }

    PyBuffer_Release(&codes);
    PyBuffer_Release(&feat);
    PyBuffer_Release(&thr);
    PyBuffer_Release(&loff);
    PyBuffer_Release(&leaf);
    PyBuffer_Release(&lfoff);
    PyBuffer_Release(&tcls);
    PyBuffer_Release(&out);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
static PyMethodDef kernel_methods[] = {
    {"build_hists", py_build_hists, METH_VARARGS,
     "Accumulate (grad, hess[, count]) node histograms in row order."},
    {"best_split_scan", py_best_split_scan, METH_VARARGS,
     "Best (gain, feature, threshold) over cumulative histograms."},
    {"class_split_scan", py_class_split_scan, METH_VARARGS,
     "Best gini (gain, feature, threshold) of a classification node."},
    {"oblivious_level", py_oblivious_level, METH_VARARGS,
     "Score one whole oblivious-tree level."},
    {"build_class_hists", py_build_class_hists, METH_VARARGS,
     "Accumulate joint (class, feature, bin) node histograms."},
    {"ensemble_predict", py_ensemble_predict, METH_VARARGS,
     "Batched binned-code descent over a packed tree ensemble."},
    {"oblivious_predict", py_oblivious_predict, METH_VARARGS,
     "Oblivious leaf-table lookup over a packed symmetric ensemble."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_repro_native",
    "Compiled histogram/split kernels (bitwise-equal to repro.native."
    "fallback).",
    -1, kernel_methods,
};

PyMODINIT_FUNC
PyInit__repro_native(void)
{
    return PyModule_Create(&kernel_module);
}
