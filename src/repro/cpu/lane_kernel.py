"""Compiled C core of the pipeline: one call runs a whole lane-batched pass.

This module compiles (at first use, with the system ``gcc``) a small C
kernel that runs a whole lane-batched pass in one call.  Every eligible
simulation goes through it: a campaign's mega-batch is an N-lane pass,
and a single :meth:`OutOfOrderPipeline.run
<repro.cpu.pipeline.OutOfOrderPipeline.run>` is a one-lane pass.  It
advances *all* lanes through the per-instruction timing recurrence —
dispatch maxima, FU-pool and issue-port argmin-replace, commit,
redirects — and services every cache access itself, lane by lane:

* the L1 probe, with the recency stamp (and dirty bit) on a hit;
* on a miss, the victim-cache swap probe (extract on hit), else the
  shared-L2 probe with LRU refill and eviction;
* the L1 refill: first-minimum LRU victim way, a fill bypass where the
  lane has no usable way in the set, and evictee insertion into the
  victim cache (lanes without one, ``insertable == 0``, drop it);
* the latency beyond the L1 hit, added to the lane's front-end clock
  (I-side) or to the load's completion (D-side);
* the warmup/measured boundary: the ``cycles_base`` snapshot, after
  which the per-lane ``int64`` counters
  (:data:`repro.cache.engine.LANE_COUNTERS`) start counting.

State is shared, not marshalled: the kernel receives one ``int64`` "ctx"
array holding scalars and the raw addresses of the NumPy lane arrays
(``ndarray.ctypes.data``) — the :class:`~repro.cache.engine.BulkLanes`
cache and victim arrays included, which it updates in place with the
bulk engine's stamp encoding.  All arithmetic is 64-bit integer and
every tie-break (first-minimum argmin, first-match probe) matches the
pipeline's reference loop, keeping results bit-identical —
golden-pinned, and re-checked against the reference loop in
``tests/cpu/test_lane_kernel.py`` and the property suite.

The kernel is optional: with no compiler, a failed build, or the
environment override ``REPRO_NO_CKERNEL=1``, ``run`` takes the reference
loop and ``run_batch`` runs every lane through it.  Compiled objects are
cached under the system temp directory keyed by a source hash, so
rebuilds only happen when the kernel source changes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import warnings

from repro.cache.engine import BIG_STAMP, LANE_COUNTERS

__all__ = ["load", "CTX", "CTX_SLOTS", "RET_DONE"]

#: ``ctx[RET]`` after a completed pass.
RET_DONE = 1

_SCALARS = (
    # pass shape and timing constants
    "N", "NLANES", "WSCALE", "WM1", "WPOW2", "FDELAY", "KSTAMP", "DHIT",
    "NPORTS", "BOUNDARY",
    # L1 geometry: ways, set-index mask, tag shift (index bits)
    "IWAYS", "ISETMASK", "ITAGSHIFT", "DWAYS", "DSETMASK", "DTAGSHIFT",
    "L2WAYS", "L2SETMASK", "L2TAGSHIFT",
    # victim caches: padded entry count (0 = none on that side), empty stamp
    "VIENT", "VIEMPTY", "VDENT", "VDEMPTY",
    # latencies beyond the L1 hit, scaled by WSCALE
    "IVICLAT", "IL2LAT", "IMEMLAT", "DVICLAT", "DL2LAT", "DMEMLAT",
    # set by the kernel
    "RET",
)
_TABLES = (
    ("EXECLAT", 9),  # (latency - 1) * W per instruction class
    ("FUOF", 9),     # class -> FU pool index
    ("POOLW", 4),    # FU pool widths
)
_POINTERS = (
    # per-instruction trace columns
    "P_CLS", "P_SRC1", "P_SRC2", "P_DEST", "P_ROBCOL", "P_IQCOL", "P_DBLOCKS",
    # front-end schedule: static fetch offsets, I-access points, redirects
    "P_SPS", "P_IAIDX", "P_IALINES", "P_RDIDX", "P_RDSNEXT",
    # per-lane timing state
    "P_REG", "P_ROB", "P_IQINT", "P_IQFP",
    "P_POOL0", "P_POOL1", "P_POOL2", "P_POOL3", "P_PORTS",
    "P_DYN", "P_FETCHBASE", "P_V", "P_CBASE",
    # per-lane cache state (BulkLanes arrays) and counters
    "P_ITAGS", "P_ILAST", "P_IDIRTY", "P_IFILLT",
    "P_DTAGS", "P_DLAST", "P_DDIRTY", "P_DFILLT",
    "P_L2TAGS", "P_L2LAST", "P_L2FILLT",
    "P_VITAGS", "P_VISTAMP", "P_VIINS", "P_VDTAGS", "P_VDSTAMP", "P_VDINS",
    "P_COUNTS",
)

#: Name -> ctx slot index; the C ``#define`` block is generated from this
#: same table, so Python and C can never disagree on the layout.
CTX: dict[str, int] = {}
_slot = 0
for _name in _SCALARS:
    CTX[_name] = _slot
    _slot += 1
for _name, _width in _TABLES:
    CTX[_name] = _slot
    _slot += _width
for _name in _POINTERS:
    CTX[_name] = _slot
    _slot += 1
CTX_SLOTS = _slot


_C_BODY = r"""
#include <stdint.h>

#define I64P(k) ((int64_t *)(intptr_t)ctx[k])
#define U8P(k) ((uint8_t *)(intptr_t)ctx[k])

/* One port side: its L1, its victim cache, its latencies, its counters. */
typedef struct {
    int64_t *tags, *last, *fillt;
    uint8_t *dirty;
    int64_t ways, set_mask, tag_shift;
    int64_t *vtags, *vstamp;
    const uint8_t *vins;
    int64_t vent, vempty;
    int64_t viclat, l2lat, memlat;
    int64_t *cnt; /* [NCOUNTERS][L] */
} port_t;

typedef struct {
    int64_t *tags, *last, *fillt;
    int64_t ways, set_mask, tag_shift, n;
} l2_t;

/* One lane's demand access to `block` at recency `stamp`.  Returns the
   latency beyond the L1 hit (0 on a hit). */
static inline int64_t access_lane(const port_t *p, const l2_t *l2,
                                  int64_t l, int64_t L, int64_t block,
                                  int64_t stamp, int is_write, int counting) {
    const int64_t ways = p->ways;
    const int64_t s = block & p->set_mask;
    const int64_t tag = block >> p->tag_shift;
    const int64_t off = (l * (p->set_mask + 1) + s) * ways;
    int64_t *trow = p->tags + off;
    int64_t *lrow = p->last + off;
    int hit = 0;
    for (int64_t k = 0; k < ways; k++)
        if (trow[k] == tag) {
            lrow[k] = stamp;
            if (is_write) p->dirty[off + k] = 1;
            hit = 1;
        }
    if (hit) return 0;
    int64_t *cnt = p->cnt + l;
    if (counting) cnt[C_MISSES * L]++;
    int64_t lat;
    int vhit = 0;
    if (p->vent) {
        /* victim swap probe: a hit extracts the block (slot -> empty) */
        int64_t *vt = p->vtags + l * p->vent;
        for (int64_t j = 0; j < p->vent; j++)
            if (vt[j] == block) {
                vt[j] = -1;
                p->vstamp[l * p->vent + j] = p->vempty;
                vhit = 1;
                break;
            }
    }
    if (vhit) {
        if (counting) cnt[C_VICTIM_HITS * L]++;
        lat = p->viclat;
    } else {
        /* shared L2 (never dirty: fills are reads) */
        const int64_t tag2 = block >> l2->tag_shift;
        const int64_t off2 = l * l2->n + (block & l2->set_mask) * l2->ways;
        int64_t *t2 = l2->tags + off2;
        int64_t *r2 = l2->last + off2;
        int h2 = 0;
        for (int64_t k = 0; k < l2->ways; k++)
            if (t2[k] == tag2) { r2[k] = stamp; h2 = 1; }
        if (h2) {
            if (counting) cnt[C_L2_HITS * L]++;
            lat = p->l2lat;
        } else {
            int64_t w2 = 0, b2 = r2[0];
            for (int64_t k = 1; k < l2->ways; k++)
                if (r2[k] < b2) { b2 = r2[k]; w2 = k; }
            if (counting && t2[w2] >= 0) cnt[C_L2_EVICTIONS * L]++;
            t2[w2] = tag2;
            r2[w2] = stamp;
            l2->fillt[off2 + w2] = stamp;
            lat = p->memlat;
        }
    }
    /* L1 refill: first-minimum stamp; BIG_STAMP there = no usable way */
    int64_t w = 0, bw = lrow[0];
    for (int64_t k = 1; k < ways; k++)
        if (lrow[k] < bw) { bw = lrow[k]; w = k; }
    if (bw >= BIG_STAMP_C) {
        if (counting) cnt[C_BYPASSED * L]++;
        return lat;
    }
    const int64_t evicted = trow[w];
    if (evicted >= 0) {
        if (counting) {
            cnt[C_EVICTIONS * L]++;
            if (p->dirty[off + w]) cnt[C_WRITEBACKS * L]++;
        }
        if (p->vent && p->vins[l]) {
            /* evictee -> victim cache: the oldest (or an empty) slot */
            int64_t *vt = p->vtags + l * p->vent;
            int64_t *vs = p->vstamp + l * p->vent;
            int64_t j = 0, bj = vs[0];
            for (int64_t k = 1; k < p->vent; k++)
                if (vs[k] < bj) { bj = vs[k]; j = k; }
            if (counting && vt[j] >= 0) cnt[C_VICTIM_EVICTIONS * L]++;
            vt[j] = (evicted << p->tag_shift) | s;
            vs[j] = stamp;
        }
    }
    trow[w] = tag;
    lrow[w] = stamp;
    p->dirty[off + w] = (uint8_t)is_write;
    p->fillt[off + w] = stamp;
    return lat;
}

void repro_run_lanes(int64_t *ctx) {
    const int64_t n = ctx[N];
    const int64_t L = ctx[NLANES];
    const int64_t W = ctx[WSCALE];
    const int64_t wm1 = ctx[WM1];
    const int64_t w_pow2 = ctx[WPOW2];
    const int64_t fdelay = ctx[FDELAY];
    const int64_t K = ctx[KSTAMP];
    const int64_t dhit = ctx[DHIT];
    const int64_t nports = ctx[NPORTS];
    const int64_t boundary = ctx[BOUNDARY];
    const int64_t *execlat = ctx + EXECLAT;
    const int64_t *fuof = ctx + FUOF;
    const int64_t *poolw = ctx + POOLW;

    const int64_t *cls_c = I64P(P_CLS);
    const int64_t *src1 = I64P(P_SRC1);
    const int64_t *src2 = I64P(P_SRC2);
    const int64_t *dest = I64P(P_DEST);
    const int64_t *robcol = I64P(P_ROBCOL);
    const int64_t *iqcol = I64P(P_IQCOL);
    const int64_t *dblocks = I64P(P_DBLOCKS);
    const int64_t *sps_c = I64P(P_SPS);
    const int64_t *ia_idx = I64P(P_IAIDX);
    const int64_t *ia_lines = I64P(P_IALINES);
    const int64_t *rd_idx = I64P(P_RDIDX);
    const int64_t *rd_snext = I64P(P_RDSNEXT);
    int64_t *reg = I64P(P_REG);
    int64_t *rob = I64P(P_ROB);
    int64_t *iqint = I64P(P_IQINT);
    int64_t *iqfp = I64P(P_IQFP);
    int64_t *pools[4] = {I64P(P_POOL0), I64P(P_POOL1), I64P(P_POOL2),
                         I64P(P_POOL3)};
    int64_t *ports = I64P(P_PORTS);
    int64_t *dyn = I64P(P_DYN);
    int64_t *fetch_base = I64P(P_FETCHBASE);
    int64_t *v = I64P(P_V);
    int64_t *cycles_base = I64P(P_CBASE);
    int64_t *counts = I64P(P_COUNTS);

    const l2_t l2 = {I64P(P_L2TAGS), I64P(P_L2LAST), I64P(P_L2FILLT),
                     ctx[L2WAYS], ctx[L2SETMASK], ctx[L2TAGSHIFT],
                     (ctx[L2SETMASK] + 1) * ctx[L2WAYS]};
    const port_t ip = {I64P(P_ITAGS), I64P(P_ILAST), I64P(P_IFILLT),
                       U8P(P_IDIRTY), ctx[IWAYS], ctx[ISETMASK],
                       ctx[ITAGSHIFT], I64P(P_VITAGS), I64P(P_VISTAMP),
                       U8P(P_VIINS), ctx[VIENT], ctx[VIEMPTY],
                       ctx[IVICLAT], ctx[IL2LAT], ctx[IMEMLAT], counts};
    const port_t dp = {I64P(P_DTAGS), I64P(P_DLAST), I64P(P_DFILLT),
                       U8P(P_DDIRTY), ctx[DWAYS], ctx[DSETMASK],
                       ctx[DTAGSHIFT], I64P(P_VDTAGS), I64P(P_VDSTAMP),
                       U8P(P_VDINS), ctx[VDENT], ctx[VDEMPTY],
                       ctx[DVICLAT], ctx[DL2LAT], ctx[DMEMLAT],
                       counts + NCOUNTERS * L};

    int64_t ia_cur = 0, rd_cur = 0;
    int64_t next_ia = ia_idx[0];
    int64_t next_rd = rd_idx[0];
    int64_t cur_sp = CUR_SP_INVALID_C;
    int counting = boundary < 0;

    for (int64_t i = 0; i < n; i++) {
        if (i == boundary) {
            /* measured region starts: snapshot the committed cycle count
               ((v - 1) // W, v >= 1 here) and start counting */
            for (int64_t l = 0; l < L; l++) cycles_base[l] = (v[l] - 1) / W;
            counting = 1;
        }
        if (i == next_ia) {
            /* ---- I-cache access point: every lane, misses serviced --- */
            const int64_t line = ia_lines[ia_cur];
            const int64_t stamp = K + 2 * i;
            for (int64_t l = 0; l < L; l++) {
                const int64_t lat =
                    access_lane(&ip, &l2, l, L, line, stamp, 0, counting);
                if (lat) {
                    dyn[l] += lat;
                    cur_sp = CUR_SP_INVALID_C; /* refresh fetch base */
                }
            }
            ia_cur++;
            next_ia = ia_idx[ia_cur];
        }
        const int64_t cls = cls_c[i];
        const int64_t sp = sps_c[i];
        if (sp != cur_sp) {
            const int64_t off = sp * W;
            for (int64_t l = 0; l < L; l++) fetch_base[l] = dyn[l] + off;
            cur_sp = sp;
        }
        const int64_t r1 = src1[i];
        const int64_t r2 = src2[i];
        const int64_t rdst = dest[i];
        int64_t *robrow = rob + robcol[i] * L;
        int64_t *iqrow =
            ((cls == 2 || cls == 3) ? iqfp : iqint) + iqcol[i] * L;
        const int64_t fu = fuof[cls];
        const int64_t pw = poolw[fu];
        int64_t *pool = pools[fu];
        const int64_t elat = execlat[cls];
        const int redirect = i == next_rd;
        const int64_t rd_add =
            redirect ? (1 + fdelay - rd_snext[rd_cur]) * W : 0;
        const int64_t dblock = dblocks[i];
        const int64_t stamp_d = K + 2 * i + 1;
        for (int64_t l = 0; l < L; l++) {
            /* dispatch: fetch/ROB/IQ/operand readiness maxima -------- */
            int64_t disp = fetch_base[l];
            int64_t x = robrow[l];
            if (x > disp) disp = x;
            x = iqrow[l];
            if (x > disp) disp = x;
            if (r1 != 64) {
                x = reg[r1 * L + l];
                if (x > disp) disp = x;
            }
            if (r2 != 64 && r2 != r1) {
                x = reg[r2 * L + l];
                if (x > disp) disp = x;
            }
            /* issue: earliest-free FU and port, first-minimum tie-break
               (argmin-replace, multiset-equivalent to heapreplace) --- */
            int64_t *pl = pool + l * pw;
            int64_t bi = 0, bv = pl[0];
            for (int64_t k = 1; k < pw; k++)
                if (pl[k] < bv) { bv = pl[k]; bi = k; }
            if (bv > disp) disp = bv;
            int64_t *pt = ports + l * nports;
            int64_t qi = 0, qv = pt[0];
            for (int64_t k = 1; k < nports; k++)
                if (pt[k] < qv) { qv = pt[k]; qi = k; }
            if (qv > disp) disp = qv;
            const int64_t issued = disp + W;
            pl[bi] = issued;
            pt[qi] = issued;
            iqrow[l] = issued;
            /* execute / complete, D-accesses serviced in place ------- */
            int64_t cw;
            if (cls == 4) {
                cw = issued + dhit +
                     access_lane(&dp, &l2, l, L, dblock, stamp_d, 0, counting);
            } else if (cls == 5) {
                access_lane(&dp, &l2, l, L, dblock, stamp_d, 1, counting);
                cw = issued; /* retires via the store buffer */
            } else {
                cw = issued + elat;
            }
            if (rdst != 65) reg[rdst * L + l] = cw;
            /* commit: v' = max(v, cw) + 1, ROB frees at the scaled
               (last_commit + 1) * W bound ---------------------------- */
            int64_t vv = v[l];
            if (cw > vv) vv = cw;
            robrow[l] = w_pow2 ? (vv | wm1) + 1 : (vv / W + 1) * W;
            v[l] = vv + 1;
            if (redirect) {
                const int64_t dd = cw + rd_add;
                if (dd > dyn[l]) dyn[l] = dd;
            }
        }
        if (redirect) {
            rd_cur++;
            next_rd = rd_idx[rd_cur];
            cur_sp = CUR_SP_INVALID_C; /* dyn moved: refresh fetch base */
        }
    }
    ctx[RET] = RET_DONE_C;
}
"""


def _source() -> str:
    defines = [f"#define {name} {slot}" for name, slot in CTX.items()]
    defines += [
        f"#define C_{name.upper()} {j}" for j, name in enumerate(LANE_COUNTERS)
    ]
    defines.append(f"#define NCOUNTERS {len(LANE_COUNTERS)}")
    defines.append(f"#define RET_DONE_C {RET_DONE}")
    defines.append(f"#define BIG_STAMP_C INT64_C({BIG_STAMP})")
    defines.append("#define CUR_SP_INVALID_C (-(INT64_C(1) << 62))")
    return "\n".join(defines) + "\n" + _C_BODY


_cached_fn = None
_build_failed = False
_warned = False


def _warn_fallback(message: str) -> None:
    """One warning per process when the kernel is unavailable: a broken
    toolchain in one pool worker would otherwise mean a *silent*
    sequential fallback (and a mysteriously slow campaign) — the gcc
    stderr tail names the cause the first time it happens."""
    global _warned
    if _warned:
        return
    _warned = True
    warnings.warn(
        f"{message}; lane batches fall back to bit-identical sequential "
        "runs (slower). Set REPRO_NO_CKERNEL=1 to silence this warning.",
        RuntimeWarning,
        stacklevel=4,
    )


def _build() -> "ctypes.CDLL | None":
    source = _source()
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    cache_dir = os.environ.get("REPRO_KERNEL_CACHE") or os.path.join(
        tempfile.gettempdir(), f"repro-lane-kernel-{os.getuid()}"
    )
    lib_path = os.path.join(cache_dir, f"lane_kernel_{digest}.so")
    if not os.path.exists(lib_path):
        try:
            os.makedirs(cache_dir, exist_ok=True)
            src_path = os.path.join(cache_dir, f"lane_kernel_{digest}.c")
            with open(src_path, "w") as fh:
                fh.write(source)
            # Build to a unique temp name, then rename: atomic under
            # POSIX, so concurrent worker processes never load a
            # half-written object.
            tmp_path = f"{lib_path}.{os.getpid()}.tmp"
            subprocess.run(
                ["gcc", "-O2", "-shared", "-fPIC", "-o", tmp_path, src_path],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp_path, lib_path)
        except subprocess.CalledProcessError as exc:
            stderr = exc.stderr or b""
            tail = stderr.decode("utf-8", errors="replace").strip()[-800:]
            _warn_fallback(
                f"lane-kernel build failed (gcc exited {exc.returncode}); "
                f"gcc stderr tail:\n{tail}"
            )
            return None
        except (OSError, subprocess.SubprocessError) as exc:
            _warn_fallback(f"lane-kernel build unavailable ({exc!r})")
            return None
    try:
        lib = ctypes.CDLL(lib_path)
    except OSError as exc:
        _warn_fallback(f"lane-kernel load failed ({exc!r})")
        return None
    fn = lib.repro_run_lanes
    fn.argtypes = [ctypes.c_void_p]
    fn.restype = None
    return fn


def load():
    """The compiled kernel entry point, or ``None`` when unavailable
    (``REPRO_NO_CKERNEL=1``, no working ``gcc``, load failure).  Build
    results — success or failure — are cached for the process."""
    if os.environ.get("REPRO_NO_CKERNEL"):
        return None
    global _cached_fn, _build_failed
    if _cached_fn is None and not _build_failed:
        _cached_fn = _build()
        if _cached_fn is None:
            _build_failed = True
    return _cached_fn
