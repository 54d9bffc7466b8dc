//! Deterministic multi-threaded execution of row-chunked kernels.
//!
//! Every parallel kernel in this workspace is built from two primitives
//! here, and both obey one rule: **the execution plan is a pure function of
//! the operand shapes**. Rows are cut into fixed [`CHUNK_ROWS`]-row chunks,
//! the sequential/parallel decision ([`should_par`]) looks only at the work
//! size, and reductions combine per-chunk partials in ascending chunk
//! order. The configured thread count decides *which OS thread executes
//! which chunk* — never what is computed or in what order values are
//! combined — so results are bit-identical at `RETIA_NUM_THREADS=1`, `=2`,
//! `=8`, or any other setting.
//!
//! Workers are `std::thread::scope` threads spawned per call (the only
//! primitive available without external crates); [`should_par`]'s work
//! threshold keeps that spawn cost away from small operands.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Rows per chunk. Fixed — never derived from the thread count — so chunk
/// boundaries (and therefore reduction order) depend only on shape.
pub const CHUNK_ROWS: usize = 16;

/// Minimum estimated flops before scoped threads are worth spawning
/// (`thread::scope` costs tens of microseconds per call).
const MIN_PAR_WORK: usize = 1 << 17;

/// Hard cap on worker threads.
const MAX_THREADS: usize = 256;

static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Process-wide thread-count override; `0` returns control to the
/// `RETIA_NUM_THREADS` environment variable / auto detection.
pub fn set_num_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// Worker threads used by parallel kernels: the [`set_num_threads`]
/// override if set, else `RETIA_NUM_THREADS`, else the machine's available
/// parallelism. Always at least 1. Changing this never changes results.
pub fn num_threads() -> usize {
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced.min(MAX_THREADS);
    }
    if let Ok(v) = std::env::var("RETIA_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n.min(MAX_THREADS);
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get().min(MAX_THREADS)).unwrap_or(1)
}

/// Whether a kernel of `rows` rows costing `cost_per_row` estimated flops
/// each should use worker threads. A function of shape only: thread count
/// does not enter, so the chunked code path (and thus the result) is the
/// same whether or not threads end up being spawned.
pub fn should_par(rows: usize, cost_per_row: usize) -> bool {
    rows > CHUNK_ROWS && rows.saturating_mul(cost_per_row) >= MIN_PAR_WORK
}

/// The fixed chunk decomposition of `rows`: `[0,16), [16,32), …` with a
/// short tail. Shared by every kernel and by the partial-reduction merge
/// order.
pub fn row_chunks(rows: usize) -> impl Iterator<Item = Range<usize>> {
    (0..rows.div_ceil(CHUNK_ROWS)).map(move |c| {
        let start = c * CHUNK_ROWS;
        start..((start + CHUNK_ROWS).min(rows))
    })
}

/// Why a chunk plan (or an observed write-set) fails verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// A chunk's end precedes its start.
    Inverted {
        /// The inverted row range.
        chunk: Range<usize>,
    },
    /// A chunk reaches past the output rows.
    OutOfBounds {
        /// The offending row range.
        chunk: Range<usize>,
        /// Total rows in the output.
        rows: usize,
    },
    /// Two chunks claim the same rows — a write-write race under threads.
    Overlap {
        /// The first (lower-starting) of the colliding chunks.
        a: Range<usize>,
        /// The chunk that re-claims rows already covered by `a`.
        b: Range<usize>,
    },
    /// Rows `from..to` are claimed by no chunk — output left unwritten.
    Gap {
        /// First uncovered row.
        from: usize,
        /// One past the last uncovered row.
        to: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Inverted { chunk } => {
                write!(f, "inverted chunk {}..{}", chunk.start, chunk.end)
            }
            PlanError::OutOfBounds { chunk, rows } => {
                write!(f, "chunk {}..{} exceeds {rows} rows", chunk.start, chunk.end)
            }
            PlanError::Overlap { a, b } => write!(
                f,
                "chunks {}..{} and {}..{} overlap (write-write race)",
                a.start, a.end, b.start, b.end
            ),
            PlanError::Gap { from, to } => write!(f, "rows {from}..{to} covered by no chunk"),
        }
    }
}

/// Proves a chunk plan safe: every chunk in bounds, pairwise disjoint, and
/// together covering `0..rows` exactly. Interval arithmetic over row ranges
/// — the disjointness half is exactly the no-data-race argument for handing
/// the chunks to different threads, the coverage half guarantees no row of
/// the output is left unwritten. Chunk order does not matter; zero-length
/// chunks contribute nothing and are tolerated.
pub fn verify_row_plan(rows: usize, chunks: &[Range<usize>]) -> Result<(), PlanError> {
    let mut sorted: Vec<Range<usize>> = Vec::with_capacity(chunks.len());
    for c in chunks {
        if c.end < c.start {
            return Err(PlanError::Inverted { chunk: c.clone() });
        }
        if c.end > rows {
            return Err(PlanError::OutOfBounds { chunk: c.clone(), rows });
        }
        if !c.is_empty() {
            sorted.push(c.clone());
        }
    }
    sorted.sort_by_key(|c| c.start);
    let mut covered = 0usize;
    let mut prev: Range<usize> = 0..0;
    for c in sorted {
        if c.start < covered {
            return Err(PlanError::Overlap { a: prev, b: c });
        }
        if c.start > covered {
            return Err(PlanError::Gap { from: covered, to: c.start });
        }
        covered = c.end;
        prev = c;
    }
    if covered < rows {
        return Err(PlanError::Gap { from: covered, to: rows });
    }
    Ok(())
}

/// Debug-assertions write-set tracker: a deterministic race detector.
///
/// When tracking is on (debug builds with [`writeset::set_tracking`] or
/// `RETIA_WRITE_TRACK=1`), [`for_each_row_chunk`] records the row range each
/// chunk closure actually receives and, after the kernel completes, asserts
/// the observed write-set is pairwise disjoint and covers the output exactly
/// (via [`verify_row_plan`]). This checks the *executed* writes, not just
/// the plan, so a future refactor that hands two threads overlapping slices
/// fails loudly in the debug test pass instead of corrupting floats.
pub mod writeset {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::OnceLock;

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static VERIFIED: AtomicUsize = AtomicUsize::new(0);

    fn env_enabled() -> bool {
        static ENV: OnceLock<bool> = OnceLock::new();
        *ENV.get_or_init(|| std::env::var("RETIA_WRITE_TRACK").is_ok_and(|v| v == "1"))
    }

    /// Turns tracking on/off programmatically (tests). Debug builds only:
    /// release builds never track, whatever this says.
    pub fn set_tracking(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Whether kernels should record and verify their write-sets.
    pub fn tracking() -> bool {
        cfg!(debug_assertions) && (ENABLED.load(Ordering::Relaxed) || env_enabled())
    }

    /// Number of kernel invocations whose write-set has been verified since
    /// process start. Tests assert this moves to prove the detector ran.
    pub fn verified_count() -> usize {
        VERIFIED.load(Ordering::Relaxed)
    }

    pub(super) fn record_verified() {
        VERIFIED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs `f(first_row, chunk)` over `out` split into [`CHUNK_ROWS`]·`row_width`
/// element chunks, in parallel when [`should_par`] says the work justifies
/// it. Chunks are disjoint `&mut` slices, so any assignment of chunks to
/// threads writes the identical output; assignment is static round-robin.
///
/// Debug builds verify the chunk plan with [`verify_row_plan`]; with
/// [`writeset`] tracking on, the rows each closure actually received are
/// re-verified after the kernel completes.
pub fn for_each_row_chunk<F>(out: &mut [f32], row_width: usize, cost_per_row: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let rows = out.len().checked_div(row_width).unwrap_or(0);
    debug_assert_eq!(rows * row_width, out.len(), "out is not a whole number of rows");
    debug_assert!(
        verify_row_plan(rows, &row_chunks(rows).collect::<Vec<_>>()).is_ok(),
        "row_chunks produced an unsafe plan for {rows} rows"
    );
    let track = writeset::tracking();
    let written: Mutex<Vec<Range<usize>>> = Mutex::new(Vec::new());
    let g = |first_row: usize, chunk: &mut [f32]| {
        if track {
            let chunk_rows = chunk.len().checked_div(row_width).unwrap_or(0);
            written
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(first_row..first_row + chunk_rows);
        }
        f(first_row, chunk);
    };
    let chunk_elems = (CHUNK_ROWS * row_width).max(1);
    let threads = effective_threads(rows, cost_per_row);
    if threads <= 1 {
        for (c, chunk) in out.chunks_mut(chunk_elems).enumerate() {
            g(c * CHUNK_ROWS, chunk);
        }
    } else {
        let mut groups: Vec<Vec<(usize, &mut [f32])>> = (0..threads).map(|_| Vec::new()).collect();
        for (c, chunk) in out.chunks_mut(chunk_elems).enumerate() {
            groups[c % threads].push((c * CHUNK_ROWS, chunk));
        }
        run_groups(groups, &|(first_row, chunk)| g(first_row, chunk));
    }
    if track && row_width > 0 {
        let writes = written.into_inner().unwrap_or_else(|e| e.into_inner());
        verify_row_plan(rows, &writes)
            .expect("write-set tracker: chunk writes must be disjoint and cover the output");
        writeset::record_verified();
    }
}

/// Maps the fixed chunk decomposition of `rows` to per-chunk values,
/// returned **in chunk order** regardless of which thread produced which
/// value. Reductions stay deterministic by folding this vector left to
/// right.
pub fn map_row_chunks<T, F>(rows: usize, cost_per_row: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges: Vec<Range<usize>> = row_chunks(rows).collect();
    debug_assert!(
        verify_row_plan(rows, &ranges).is_ok(),
        "row_chunks produced an unsafe plan for {rows} rows"
    );
    let mut slots: Vec<Option<T>> = ranges.iter().map(|_| None).collect();
    let threads = effective_threads(rows, cost_per_row);
    if threads <= 1 {
        for (slot, range) in slots.iter_mut().zip(ranges) {
            *slot = Some(f(range));
        }
    } else {
        let mut groups: Vec<Vec<(&mut Option<T>, Range<usize>)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (c, (slot, range)) in slots.iter_mut().zip(ranges).enumerate() {
            groups[c % threads].push((slot, range));
        }
        run_groups(groups, &|(slot, range)| *slot = Some(f(range)));
    }
    slots.into_iter().map(|s| s.expect("every chunk visited")).collect()
}

fn effective_threads(rows: usize, cost_per_row: usize) -> usize {
    if !should_par(rows, cost_per_row) {
        if retia_obs::kernel_timing_enabled() {
            retia_obs::metrics::inc("parallel.dispatch.seq");
        }
        return 1;
    }
    // No point spawning more workers than there are chunks.
    let threads = num_threads().min(rows.div_ceil(CHUNK_ROWS)).max(1);
    if retia_obs::kernel_timing_enabled() {
        retia_obs::metrics::inc(if threads > 1 {
            "parallel.dispatch.par"
        } else {
            "parallel.dispatch.seq"
        });
    }
    threads
}

/// Executes each group of work items on its own scoped thread; the calling
/// thread takes group 0 instead of idling in `scope`'s join.
fn run_groups<I: Send, F: Fn(I) + Sync>(groups: Vec<Vec<I>>, f: &F) {
    std::thread::scope(|s| {
        let mut iter = groups.into_iter();
        let own = iter.next();
        for group in iter {
            if !group.is_empty() {
                s.spawn(move || {
                    for item in group {
                        f(item);
                    }
                });
            }
        }
        if let Some(group) = own {
            for item in group {
                f(item);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The thread-count override and `RETIA_NUM_THREADS` are process
    /// globals; tests mutating them serialize on this lock and restore the
    /// override on drop (even across a panic).
    struct ThreadGuard(#[allow(dead_code)] MutexGuard<'static, ()>);
    impl ThreadGuard {
        fn lock() -> Self {
            static LOCK: Mutex<()> = Mutex::new(());
            Self(LOCK.lock().unwrap_or_else(|e| e.into_inner()))
        }
    }
    impl Drop for ThreadGuard {
        fn drop(&mut self) {
            set_num_threads(0);
        }
    }

    #[test]
    fn row_chunks_partition_rows() {
        for rows in [0usize, 1, 15, 16, 17, 160, 161] {
            let ranges: Vec<_> = row_chunks(rows).collect();
            let total: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(total, rows, "rows {rows}");
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            if let Some(last) = ranges.last() {
                assert_eq!(last.end, rows);
            }
        }
    }

    #[test]
    fn chunk_plan_ignores_thread_count() {
        let _guard = ThreadGuard::lock();
        // The partials vector must be identical (values *and* order) at any
        // thread count — this is the determinism contract itself.
        let run = |threads: usize| -> Vec<f64> {
            set_num_threads(threads);
            map_row_chunks(1000, 1 << 12, |r| r.map(|i| (i as f64).sqrt()).sum())
        };
        let one = run(1);
        for threads in [2usize, 3, 8, 64] {
            let many = run(threads);
            assert_eq!(one.len(), many.len());
            for (a, b) in one.iter().zip(many.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn for_each_row_chunk_writes_every_row() {
        let _guard = ThreadGuard::lock();
        for threads in [1usize, 4] {
            set_num_threads(threads);
            let (rows, width) = (100usize, 7usize);
            let mut out = vec![0.0f32; rows * width];
            for_each_row_chunk(&mut out, width, 1 << 12, |first_row, chunk| {
                for (d, row) in chunk.chunks_mut(width).enumerate() {
                    for (j, x) in row.iter_mut().enumerate() {
                        *x = ((first_row + d) * width + j) as f32;
                    }
                }
            });
            for (i, &x) in out.iter().enumerate() {
                assert_eq!(x, i as f32);
            }
        }
    }

    #[test]
    fn prover_accepts_generated_plans() {
        for rows in [0usize, 1, 15, 16, 17, 160, 161, 1000] {
            let plan: Vec<_> = row_chunks(rows).collect();
            assert_eq!(verify_row_plan(rows, &plan), Ok(()), "rows {rows}");
        }
        // Order must not matter: a shuffled plan is still safe.
        let mut plan: Vec<_> = row_chunks(100).collect();
        plan.reverse();
        assert_eq!(verify_row_plan(100, &plan), Ok(()));
    }

    #[test]
    fn prover_rejects_crafted_overlapping_plan() {
        // Two chunks both claim rows 8..16 — a write-write race.
        let racy = vec![0..16, 8..32];
        match verify_row_plan(32, &racy) {
            Err(PlanError::Overlap { a, b }) => {
                assert_eq!((a, b), (0..16, 8..32));
            }
            other => panic!("expected Overlap, got {other:?}"),
        }
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init, clippy::reversed_empty_ranges)]
    fn prover_rejects_gaps_and_out_of_bounds() {
        assert_eq!(verify_row_plan(32, &[0..16]), Err(PlanError::Gap { from: 16, to: 32 }));
        assert_eq!(verify_row_plan(32, &[0..8, 16..32]), Err(PlanError::Gap { from: 8, to: 16 }));
        assert_eq!(
            verify_row_plan(16, &[0..16, 16..24]),
            Err(PlanError::OutOfBounds { chunk: 16..24, rows: 16 })
        );
        let inverted = vec![8..4];
        assert_eq!(verify_row_plan(16, &inverted), Err(PlanError::Inverted { chunk: 8..4 }));
        // Empty plans only cover empty outputs.
        assert_eq!(verify_row_plan(0, &[]), Ok(()));
        assert_eq!(verify_row_plan(4, &[]), Err(PlanError::Gap { from: 0, to: 4 }));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn write_set_tracker_verifies_kernel_writes() {
        let _guard = ThreadGuard::lock();
        writeset::set_tracking(true);
        let before = writeset::verified_count();
        for threads in [1usize, 4] {
            set_num_threads(threads);
            let (rows, width) = (200usize, 8usize);
            let mut out = vec![0.0f32; rows * width];
            for_each_row_chunk(&mut out, width, 1 << 12, |first_row, chunk| {
                for (d, row) in chunk.chunks_mut(width).enumerate() {
                    row.iter_mut().for_each(|x| *x = (first_row + d) as f32);
                }
            });
        }
        writeset::set_tracking(false);
        assert!(
            writeset::verified_count() >= before + 2,
            "tracker did not verify the kernel invocations"
        );
    }

    #[test]
    fn small_work_stays_sequential() {
        assert!(!should_par(8, 1_000_000), "few rows: not worth chunk-parallelism");
        assert!(!should_par(1_000_000, 0), "zero-cost rows: not worth spawning");
        assert!(should_par(1_000, 1_000));
    }

    #[test]
    fn env_and_override_resolution() {
        let _guard = ThreadGuard::lock();
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(0);
        std::env::set_var("RETIA_NUM_THREADS", "5");
        assert_eq!(num_threads(), 5);
        std::env::set_var("RETIA_NUM_THREADS", "not-a-number");
        assert!(num_threads() >= 1);
        std::env::remove_var("RETIA_NUM_THREADS");
        assert!(num_threads() >= 1);
    }
}
