//! `whynot-parallel` — the scoped-thread execution subsystem behind the
//! framework's parallel search shards.
//!
//! A hand-rolled, dependency-free fork/join executor over
//! [`std::thread::scope`]: an [`Executor`] fans chunked index ranges out
//! to a bounded set of scoped workers and lands every result **by input
//! index**, never by completion order, so parallel runs are bit-for-bit
//! reproductions of their sequential counterparts. The container this
//! repo grows in has no crates.io access, so this plays the role rayon
//! would otherwise play — scoped to exactly the primitives the why-not
//! search algorithms need.
//!
//! | primitive | contract |
//! |---|---|
//! | [`Executor::par_map`] / [`Executor::par_map_index`] | results in input order, chunked work stealing via an atomic cursor |
//! | [`Executor::par_for_each`] | side-effect fan-out, same chunking |
//! | [`Executor::par_reduce`] | fixed, thread-count-*independent* fold tree (chunk boundaries depend only on the input length), so even merely-associative folds are deterministic across thread counts |
//! | [`Executor::par_map_with_worker`] | `par_map_index` plus the worker id, for per-worker counters ([`SessionStats`](../whynot_core/struct.SessionStats.html)-style invariant pinning) |
//!
//! Worker panics propagate: the first panicking worker's payload resumes
//! on the caller after every sibling has been joined (no detached
//! threads, no poisoned state). Executors nest — a task may build its own
//! [`Executor`] and fan out again; each fan-out opens its own scope.
//!
//! # Thread-count knob
//!
//! The worker count comes from, in priority order:
//!
//! 1. an explicit [`Executor::with_threads`] / [`ExecutorBuilder::threads`],
//! 2. the `WHYNOT_THREADS` environment variable ([`THREADS_ENV`]),
//! 3. [`std::thread::available_parallelism`].
//!
//! `Executor` is a `Copy` configuration value: scoped threads cannot
//! outlive a call, so "the pool" is the pair (worker count, spawn
//! strategy), not a set of long-lived OS threads — reusing an executor
//! reuses the configuration, and every `par_*` call spawns at most
//! `threads` scoped workers for its own duration.
//!
//! # Map to the paper (ten Cate, Civili, Sherkhonov, Tan — PODS 2015)
//!
//! | module / primitive | paper hook |
//! |---|---|
//! | [`Executor::par_map`] | Algorithm 2 (§5.2) permuted reruns: MGE enumeration fans growth orders out over one frozen lub-column view (Lemmas 5.1/5.2 columns built once, shared read-only); the standalone contrast batch does the same per question |
//! | [`Executor::par_map_with_worker`] | the session's lub-driven batches (`incremental_batch`, `contrast_batch`): one question per task, per-worker counters proving the ≤-one-column-build session invariant survives parallelism |
//!
//! Algorithm 1 (§5.1, EXHAUSTIVE SEARCH) has no parallel path: the
//! session's conflict-bit cache answers warm questions faster on the
//! calling thread than a fan-out that rebuilds those bits per worker.
//!
//! # Examples
//!
//! ```
//! use whynot_parallel::Executor;
//!
//! let exec = Executor::with_threads(4);
//! let squares = exec.par_map_index(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]); // input order
//!
//! let total = exec.par_reduce(1000, 0usize, |i| i, |a, b| a + b);
//! assert_eq!(total, 499_500);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod executor;

pub use executor::{available_threads, Executor, ExecutorBuilder, THREADS_ENV};
