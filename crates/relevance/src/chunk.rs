//! Chunked data-parallel execution over row ranges.
//!
//! The pipeline's hot passes (distance kernels, normalization-apply,
//! combining) are embarrassingly parallel over rows: every output row
//! depends only on the same row of its inputs. This module splits an
//! output slice into fixed-size row ranges ([`ranges`]) and fans them
//! out across the shared
//! [`visdb_exec`] runtime, so a single large query parallelizes over
//! rows while the whole process stays inside one global thread budget.
//!
//! Determinism: each task writes only its own disjoint sub-slice and
//! reads only shared immutable inputs, so results are independent of
//! thread count and scheduling — the parallel walk is bit-identical to
//! the serial one.
//!
//! A window walk ([`window_walk`]) is the one walk whose ranges may take
//! different routes: once the exact answers counted so far cover the
//! window's fit count, a comparison window's later ranges are
//! compare-packed straight from the column instead of filled and folded.
//! Both routes yield the same stats and bits, so the result still does
//! not depend on the schedule — only the count of packed ranges does.
//!
//! Execution runs on the *persistent* pool of the caller's current
//! runtime (the service's own pool when called from a service worker,
//! the global pool otherwise); the caller participates in its own batch,
//! so fork-join never waits on pool capacity and no walk spawns threads
//! of its own.

use std::sync::atomic::{AtomicUsize, Ordering};

use visdb_distance::frame::{
    DistanceFrame, ExactBits, FrameSink, FrameStats, PackedBits, PackedChunk,
};

/// Rows per chunk. Large enough to amortise dispatch overhead, small
/// enough to load-balance across the worker pool. A column sketch keeps
/// one zone-map entry per chunk, so this is the storage layer's constant.
pub const CHUNK_ROWS: usize = visdb_storage::sketch::CHUNK_ROWS;

/// Minimum total rows before a chunk walk fans out across threads;
/// smaller inputs run serially (dispatch overhead would dominate the
/// §4.3 interactive latencies the chunking is meant to protect).
pub const PAR_MIN_ROWS: usize = 32_768;

/// Run `f` once per task, fanning the tasks out across the shared
/// runtime when `parallel` is set (and there is more than one task).
/// Tasks carry their own mutable state (typically disjoint `&mut`
/// sub-slices), which is what makes the fan-out safe.
pub fn run_striped<T: Send>(tasks: Vec<T>, parallel: bool, f: impl Fn(T) + Sync) {
    if !parallel || tasks.len() <= 1 {
        for task in tasks {
            f(task);
        }
        return;
    }
    visdb_exec::run_tasks(tasks, f);
}

/// The row ranges of one pass: `n` rows in [`CHUNK_ROWS`]-sized chunks,
/// the last one shorter. Every range but the last is a whole number of
/// 64-row words and starts on one, which is what lets a window walk
/// concatenate its per-range packed bits word by word.
pub fn ranges(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .step_by(CHUNK_ROWS)
        .map(|offset| (offset, CHUNK_ROWS.min(n - offset)))
        .collect()
}

/// Split `out` into the given contiguous `ranges` (which must cover it
/// in order), returning one mutable sub-slice per range.
pub fn split_ranges<'a, T>(out: &'a mut [T], ranges: &[(usize, usize)]) -> Vec<&'a mut [T]> {
    let mut parts = Vec::with_capacity(ranges.len());
    let mut rest = out;
    let mut consumed = 0;
    for &(offset, len) in ranges {
        debug_assert_eq!(offset, consumed, "ranges must be contiguous");
        let (head, tail) = rest.split_at_mut(len);
        parts.push(head);
        rest = tail;
        consumed += len;
    }
    debug_assert!(rest.is_empty(), "ranges must cover the slice");
    parts
}

/// Walk `out` in [`CHUNK_ROWS`]-sized chunks, calling `f(offset, chunk)`
/// for each, fanning the chunks out across the worker pool when
/// `parallel` is set and the slice is at least [`PAR_MIN_ROWS`] long.
pub fn for_each_chunk<T: Send>(out: &mut [T], parallel: bool, f: impl Fn(usize, &mut [T]) + Sync) {
    let fan_out = parallel && out.len() >= PAR_MIN_ROWS;
    let ranges = ranges(out.len());
    let tasks: Vec<(usize, &mut [T])> = ranges
        .iter()
        .map(|&(offset, _)| offset)
        .zip(split_ranges(out, &ranges))
        .collect();
    run_striped(tasks, fan_out, |(offset, chunk)| f(offset, chunk));
}

/// Map every row range of a pass to a result, without any backing output
/// slice: `f(offset, len)` runs once per range (fanned out across the
/// runtime under the usual conditions) and the per-range results come
/// back **in range order**, so order-sensitive merges stay deterministic
/// regardless of thread schedule — the walk shape of a fold that keeps
/// only per-range results (a window's packed exact bits, a pattern
/// table's counts).
pub fn map_ranges<R: Send>(
    n: usize,
    parallel: bool,
    f: impl Fn(usize, usize) -> R + Sync,
) -> Vec<R> {
    map_range_list(&ranges(n), parallel && n >= PAR_MIN_ROWS, f)
}

/// [`map_ranges`] over an explicit range list: `f(offset, len)` once per
/// range, fanned out when `parallel` is set, results in range order.
pub fn map_range_list<R: Send>(
    ranges: &[(usize, usize)],
    parallel: bool,
    f: impl Fn(usize, usize) -> R + Sync,
) -> Vec<R> {
    let mut out: Vec<Option<R>> = ranges.iter().map(|_| None).collect();
    {
        let tasks: Vec<(&(usize, usize), &mut Option<R>)> =
            ranges.iter().zip(out.iter_mut()).collect();
        run_striped(tasks, parallel, |(&(offset, len), slot)| {
            *slot = Some(f(offset, len));
        });
    }
    out.into_iter()
        .map(|r| r.expect("every range produces a result"))
        .collect()
}

/// [`for_each_chunk`] over a packed [`DistanceFrame`]: each task gets
/// the lockstep `(values, validity)` sub-slices of its row range and
/// returns that range's [`FrameStats`]; the merged stats of the whole
/// walk come back to the caller. Stats merging is min/max/count only, so
/// the merged result is bit-identical regardless of chunking or thread
/// schedule — the fused stats accumulation stays deterministic.
pub fn for_each_frame_range(
    frame: &mut DistanceFrame,
    parallel: bool,
    f: impl Fn(usize, &mut [f64], &mut [bool]) -> FrameStats + Sync,
) -> FrameStats {
    let n = frame.len();
    if n == 0 {
        return FrameStats::default();
    }
    let fan_out = parallel && n >= PAR_MIN_ROWS;
    let ranges = ranges(n);
    let mut stats = vec![FrameStats::default(); ranges.len()];
    {
        type FrameTask<'a> = (usize, (&'a mut [f64], &'a mut [bool]), &'a mut FrameStats);
        let tasks: Vec<FrameTask<'_>> = ranges
            .iter()
            .map(|&(offset, _)| offset)
            .zip(frame.split_ranges_mut(&ranges))
            .zip(stats.iter_mut())
            .map(|((offset, chunk), slot)| (offset, chunk, slot))
            .collect();
        run_striped(tasks, fan_out, |(offset, (vals, mask), slot)| {
            *slot = f(offset, vals, mask);
        });
    }
    let mut total = FrameStats::default();
    for s in &stats {
        total.merge(s);
    }
    total
}

/// The distance walk of a window whose §5.2 fit count `k` is known
/// before it runs. Each task fills its row range into per-worker chunk
/// scratch (`f(offset, vals, mask)` returns the range's stats) and,
/// while the chunk is still in cache, folds its packed `(exact, defined)`
/// bits. It copies the rows into the window's frame only while the exact
/// answers counted so far by all tasks — one shared counter, its own
/// included — stay below `k`. So a walk whose exact answers cover `k`
/// returns no frame: the fit is `dmax = 0` and the bits are the window. A
/// walk whose count never reaches `k` has copied every range, and its
/// frame comes back complete. Which it is depends on the final count
/// alone, never on the schedule.
///
/// A range that starts once the count has reached `k` will not be copied,
/// so it first asks `pack(offset, len)` for its stats and bits straight
/// from the column (`batch::compare_pack`: one pass, no scratch written);
/// a range `pack` declines takes the fill like any other. The two give
/// the same stats and bits, so which ranges took which route changes
/// nothing but the time. Returns the frame (if any), the merged stats,
/// the bits (definedness dropped when every row is defined) and the
/// number of ranges `pack` served.
pub fn window_walk(
    n: usize,
    parallel: bool,
    k: usize,
    f: impl Fn(usize, &mut [f64], &mut [bool]) -> FrameStats + Sync,
    pack: impl Fn(usize, usize) -> Option<PackedChunk> + Sync,
) -> (Option<DistanceFrame>, FrameStats, ExactBits, usize) {
    let ranges = ranges(n);
    let mut frame = FrameSink::new(n);
    let mut folds = vec![PackedChunk::default(); ranges.len()];
    let (exact_so_far, packed, arena) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        ScratchArena::new(),
    );
    let tasks: Vec<_> = (ranges.iter().map(|&(offset, _)| offset))
        .zip(frame.split_ranges_mut(&ranges))
        .zip(folds.iter_mut())
        .collect();
    run_striped(
        tasks,
        parallel && n >= PAR_MIN_ROWS,
        |((offset, rows), fold)| {
            let covered = exact_so_far.load(Ordering::Relaxed) >= k;
            if let Some(chunk) = covered.then(|| pack(offset, rows.len())).flatten() {
                packed.fetch_add(1, Ordering::Relaxed);
                *fold = chunk;
                return;
            }
            let mut scratch = arena.take();
            let (vals, mask) = &mut scratch.frames(1, rows.len())[0];
            let stats = f(offset, vals, mask);
            // a chunk with no exact answer and no undefined row has its
            // bits in its counts
            let len = vals.len();
            let (exact, defined) = match stats.zeros == 0 && stats.defined == len {
                true => (
                    PackedBits::filled(len, false),
                    PackedBits::filled(len, true),
                ),
                false => PackedBits::fold_exact(vals, mask),
            };
            if exact_so_far.fetch_add(stats.zeros, Ordering::Relaxed) + stats.zeros < k {
                rows.write(vals, mask);
            }
            *fold = (stats, exact, defined);
        },
    );
    let mut stats = FrameStats::default();
    let (mut exact, mut defined) = (PackedBits::with_capacity(n), PackedBits::with_capacity(n));
    for (s, e, d) in &folds {
        stats.merge(s);
        exact.append(e);
        defined.append(d);
    }
    let raw = (stats.zeros < k).then(|| {
        frame
            .finish()
            .expect("a count below k leaves every range written")
    });
    let bits = (exact, (stats.defined < n).then_some(defined));
    (raw, stats, bits, packed.into_inner())
}

/// One worker's reusable chunk scratch: lockstep packed `(values,
/// validity)` buffer pairs, grown on demand and kept across chunks.
#[derive(Default)]
pub struct Scratch {
    bufs: Vec<(Vec<f64>, Vec<bool>)>,
}

impl Scratch {
    /// Borrow `children` lockstep `(values, mask)` pairs of `len` rows
    /// each. Contents are **unspecified** (stale rows from a previous
    /// chunk survive): callers must overwrite every row they read — the
    /// contract all the fused chunk walks already satisfy, since every
    /// kernel writes each output row unconditionally.
    pub fn frames(&mut self, children: usize, len: usize) -> &mut [(Vec<f64>, Vec<bool>)] {
        if self.bufs.len() < children {
            self.bufs.resize_with(children, Default::default);
        }
        for (v, m) in &mut self.bufs[..children] {
            v.resize(len, 0.0);
            m.resize(len, false);
        }
        &mut self.bufs[..children]
    }
}

/// A small arena of per-worker [`Scratch`] buffers for one pipeline run:
/// a chunk walk takes a scratch at task start, reuses it across every
/// chunk of the task, and returns it on drop — so a pass over thousands
/// of chunks pays the allocator once per worker (plus once per nesting
/// level for recursive condition trees) instead of once per chunk.
/// Create one per run; the buffers die with it.
#[derive(Default)]
pub struct ScratchArena {
    pool: std::sync::Mutex<Vec<Scratch>>,
}

impl ScratchArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a scratch (reusing a returned one when available). The guard
    /// hands the scratch back on drop.
    pub fn take(&self) -> ScratchGuard<'_> {
        let scratch = self
            .pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default();
        ScratchGuard {
            arena: self,
            scratch,
        }
    }
}

/// RAII handle on an arena scratch; derefs to [`Scratch`] and returns
/// the buffers to the arena on drop.
pub struct ScratchGuard<'a> {
    arena: &'a ScratchArena,
    scratch: Scratch,
}

impl std::ops::Deref for ScratchGuard<'_> {
    type Target = Scratch;

    fn deref(&self) -> &Scratch {
        &self.scratch
    }
}

impl std::ops::DerefMut for ScratchGuard<'_> {
    fn deref_mut(&mut self) -> &mut Scratch {
        &mut self.scratch
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        self.arena
            .pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(std::mem::take(&mut self.scratch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_every_row_exactly_once() {
        let n = PAR_MIN_ROWS + CHUNK_ROWS / 2;
        let mut out = vec![0usize; n];
        for_each_chunk(&mut out, true, |offset, chunk| {
            for (j, slot) in chunk.iter_mut().enumerate() {
                *slot = offset + j;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i);
        }
    }

    #[test]
    fn serial_and_parallel_walks_agree() {
        let n = PAR_MIN_ROWS + 123;
        let fill = |parallel: bool| {
            let mut out = vec![0.0f64; n];
            for_each_chunk(&mut out, parallel, |offset, chunk| {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let i = (offset + j) as f64;
                    *slot = i * 1.5 - 3.0;
                }
            });
            out
        };
        assert_eq!(fill(false), fill(true));
    }

    #[test]
    fn empty_and_tiny_inputs_run_serially() {
        let mut empty: Vec<u8> = Vec::new();
        for_each_chunk(&mut empty, true, |_, _| panic!("no chunks expected"));
        let mut one = vec![0u8];
        for_each_chunk(&mut one, true, |offset, chunk| {
            assert_eq!(offset, 0);
            chunk[0] = 7;
        });
        assert_eq!(one, vec![7]);
    }

    /// The invariant a window walk's word-by-word bit concatenation
    /// relies on: the ranges are contiguous and cover `0..n`, and every
    /// range but the last is [`CHUNK_ROWS`] long and starts on a 64-row
    /// word.
    #[test]
    fn ranges_are_contiguous_word_aligned_chunks() {
        for n in [
            0,
            1,
            63,
            64,
            CHUNK_ROWS - 1,
            CHUNK_ROWS,
            CHUNK_ROWS + 1,
            3 * CHUNK_ROWS + 100,
        ] {
            let rs = ranges(n);
            let mut next = 0;
            for (i, &(offset, len)) in rs.iter().enumerate() {
                assert_eq!(offset, next, "n={n}: contiguous");
                assert!(len > 0, "n={n}: no empty range");
                if i + 1 < rs.len() {
                    assert_eq!(len, CHUNK_ROWS, "n={n}: a full chunk");
                    assert_eq!(offset % 64, 0, "n={n}: word-aligned");
                }
                next += len;
            }
            assert_eq!(next, n, "n={n}: covers every row");
        }
    }

    /// The count rule of [`window_walk`]: while the exact answers stay
    /// below `k` every range is copied, and the frame is the one a plain
    /// walk fills; at `k` or above there is no frame. The bits and stats
    /// are the plain walk's either way — at 1 to 9 chunks, serial and
    /// parallel — whether or not the ranges past `k` are compare-packed (a `>=` column whose
    /// every third chunk holds a `-inf` the pack declines); a serial walk
    /// packs exactly the ranges the count rule names.
    #[test]
    fn window_walks_keep_a_complete_frame_below_k() {
        use visdb_distance::batch::{self, CompareKernel, NumericKernel};
        let kernel = NumericKernel::Compare(CompareKernel::Greater, Some(0.0));
        for chunks in 1..=9 {
            let n = chunks * CHUNK_ROWS - 100;
            let row = |i: usize| match i % 11 {
                _ if i % (3 * CHUNK_ROWS) == 777 => Some(f64::NEG_INFINITY),
                0..=2 => Some((i % 7) as f64),
                3 => Some(-0.0),
                4 => None,
                5 => Some(f64::NAN),
                _ => Some(-(i as f64) - 0.5),
            };
            let xs: Vec<f64> = (0..n).map(|i| row(i).unwrap_or(1.0)).collect();
            let valid: Vec<bool> = (0..n).map(|i| row(i).is_some()).collect();
            let fill = |offset: usize, vals: &mut [f64], mask: &mut [bool]| {
                let rows = offset..offset + vals.len();
                batch::run_frame(&xs[rows.clone()], Some(&valid[rows]), kernel, vals, mask)
            };
            let pack = |offset: usize, len: usize| {
                let rows = offset..offset + len;
                batch::compare_pack(&xs[rows.clone()], Some(&valid[rows]), kernel)
            };
            let mut plain = DistanceFrame::undefined(n);
            let want_stats = for_each_frame_range(&mut plain, false, fill);
            let want_bits = plain.exact_bits();
            let zeros = want_stats.zeros;
            // the exact answers before each chunk: a serial walk packs the
            // chunks they cover `k` for, but those holding a `-inf`
            let mut before = 0;
            let counted: Vec<(usize, bool)> = (ranges(n).into_iter())
                .map(|(offset, len)| {
                    let at = before;
                    before += (offset..offset + len)
                        .filter(|&i| plain.get(i) == Some(0.0))
                        .count();
                    (at, (offset..offset + len).all(|i| !xs[i].is_infinite()))
                })
                .collect();
            let in_first = counted.get(1).map_or(0, |&(at, _)| at);
            for k in [1, in_first + 1, zeros / 2, zeros, zeros + 1, n] {
                for parallel in [false, true] {
                    let what = format!("{chunks} chunks, k = {k}, parallel: {parallel}");
                    let (raw, stats, bits, packed) = window_walk(n, parallel, k, fill, pack);
                    assert_eq!((stats, &bits), (want_stats, &want_bits), "{what}");
                    assert_eq!(raw.is_some(), zeros < k, "{what}");
                    assert!(raw.is_none_or(|raw| raw.bits_eq(&plain)), "{what}");
                    // only ranges past the count's reaching k are packed
                    if zeros < k {
                        assert_eq!(packed, 0, "{what}");
                    } else if !parallel {
                        let due = counted.iter().filter(|&&(at, finite)| at >= k && finite);
                        assert_eq!(packed, due.count(), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_arena_reuses_buffers_across_takes() {
        let arena = ScratchArena::new();
        let cap0 = {
            let mut s = arena.take();
            let bufs = s.frames(3, 100);
            assert_eq!(bufs.len(), 3);
            for (v, m) in bufs.iter() {
                assert_eq!(v.len(), 100);
                assert_eq!(m.len(), 100);
            }
            bufs[0].0.capacity()
        };
        {
            // returned scratch comes back with its allocation intact and
            // resizes to the new chunk shape
            let mut s = arena.take();
            let bufs = s.frames(2, 40);
            assert_eq!(bufs.len(), 2);
            assert_eq!(bufs[0].0.len(), 40);
            assert!(bufs[0].0.capacity() >= cap0.min(100));
        }
        // nested takes (recursive condition trees) get distinct scratches
        let a = arena.take();
        let b = arena.take();
        drop(a);
        drop(b);
    }
}
