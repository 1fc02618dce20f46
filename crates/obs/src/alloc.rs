//! Heap-allocation probe: a process-global hook a counting binary can
//! install so the trainer reports bytes allocated per epoch.
//!
//! `dace-obs` deliberately does *not* ship a global allocator — swapping the
//! allocator is a whole-binary decision that belongs to the final artifact
//! (the root `tests/train_alloc.rs` gate and `perfbench` each install a
//! counting wrapper around `System`). Instead, any binary that *does* count
//! allocations registers a probe here once at startup; library code (the
//! trainer) samples it opportunistically and records the delta. When no
//! probe is installed the cost is one `OnceLock` load and every reading is
//! `None`.

use std::sync::OnceLock;

static PROBE: OnceLock<fn() -> u64> = OnceLock::new();

/// Install the process-wide allocation probe. `probe` must return a
/// monotonically non-decreasing count of bytes allocated so far (frees are
/// not subtracted — the trainer differences two readings, so what it reports
/// is gross bytes allocated in between).
///
/// First caller wins; later calls are ignored so tests running in one
/// process cannot fight over the hook.
pub fn set_alloc_probe(probe: fn() -> u64) {
    let _ = PROBE.set(probe);
}

/// Bytes allocated so far according to the installed probe, or `None` when
/// no probe was registered (the common case outside those binaries).
pub fn alloc_probe_bytes() -> Option<u64> {
    PROBE.get().map(|probe| probe())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_probe() -> u64 {
        42
    }

    #[test]
    fn probe_roundtrip_and_first_caller_wins() {
        // Before registration this may already be set by another test in the
        // same process, so only assert the post-registration contract.
        set_alloc_probe(fake_probe);
        assert_eq!(alloc_probe_bytes(), Some(42));
        // Second registration is a no-op, not a panic.
        set_alloc_probe(fake_probe);
        assert_eq!(alloc_probe_bytes(), Some(42));
    }
}
