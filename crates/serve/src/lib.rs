//! # timber-serve
//!
//! The persistent evaluation service for the TIMBER reproduction: a
//! daemon (`repro serve`) that accepts JSONL evaluation requests —
//! netlist/schedule spec, scheme, trial count, seed — over stdin or a
//! Unix socket and answers them from a content-addressed cache.
//!
//! ## Architecture
//!
//! * [`spec`] — request parsing (a borrowed pull reader, no JSON tree)
//!   with strict unknown-field rejection,
//!   and the *canonical* spec form whose injectivity makes content
//!   addressing sound (field order, whitespace and numeric spellings
//!   all collapse; distinct values never do).
//! * [`key`] — the 256-bit splitmix64-sponge content digest of a
//!   canonical form.
//! * [`cache`] — deterministic logical-clock LRU, instantiated twice:
//!   a *design* tier (compiled netlist + STA arrival quantiles +
//!   snapped schedule + hold-padding plan) and a *result* tier (full
//!   response bodies).
//! * [`mod@compile`] — the design tier's producer, plus the trial
//!   evaluator that reduces a spec against a compiled design to an
//!   id-independent response body.
//! * [`engine`] — batch orchestration: cache probes, in-batch
//!   coalescing, `catch_unwind`-isolated compiles, cache-miss
//!   evaluation through `timber-resilience`'s hardened work-pull
//!   executor (watchdog, retries, quarantine), crash-safe journalling
//!   through its torn-line-tolerant record log, and `timber-telemetry`
//!   service counters.
//! * [`integrity`] — sealed (checksummed) payloads: every cache entry
//!   and journal record carries a splitmix64-folded CRC over its exact
//!   bytes, verified on every read, so bit-rot is detected and
//!   recomputed as a miss instead of served.
//! * [`governor`] — the service-level degradation ladder (nominal →
//!   shed-low → cache-only → reject) driven by per-batch cold demand
//!   with hysteresis, mirroring `timber-resilience`'s `LadderGovernor`
//!   one layer up.
//! * [`server`] — the stdin and Unix-socket transports, which read
//!   bounded byte lines and answer an over-long or non-UTF-8 line with
//!   a per-line error.
//! * [`storm`] — the deterministic load generator and its replay gate
//!   (`repro storm`), which doubles as the chaos client (seeded
//!   priorities, deadlines and jittered retries).
//!
//! ## Determinism contract
//!
//! Response bodies are pure functions of specs; responses sort by
//! request id; cache and quarantine counters are pure functions of the
//! request stream. Only `stats` responses and the storm `render()`
//! summary carry wall-clock latency, and both keep it in a separate
//! object so replay gates can diff the deterministic remainder
//! byte-for-byte.

#![warn(missing_docs)]

pub mod cache;
pub mod compile;
pub mod engine;
pub mod governor;
pub mod integrity;
pub mod key;
pub mod server;
pub mod spec;
pub mod storm;

pub use cache::LruCache;
pub use compile::{compile, evaluate, CompiledDesign};
pub use engine::{Engine, EngineConfig, EvalFault, Response};
pub use governor::{ServiceGovernor, ServiceGovernorConfig, ServiceLevel, ServiceTransition};
pub use integrity::{open, payload_crc, seal, SealError, SEAL_PREFIX_LEN};
pub use key::{content_hash, CacheKey};
pub use server::{serve_lines, serve_unix, DEFAULT_BATCH_SIZE};
pub use spec::{parse_request, DesignId, EvalSpec, Priority, Request};
pub use storm::{ClientChaos, StormReport, StormSpec};

#[cfg(test)]
mod props;
#[cfg(test)]
mod spec_diff;
