//! Resident cost of a large world's fiber stacks. One test in its own
//! binary, so the process's resident high-water mark is this world's.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use mpisim::{Engine, WorldBuilder};

/// The process's peak resident set so far, in KiB.
fn vm_hwm_kib() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .expect("VmHWM line");
    line.trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM in kB")
}

/// A rank that blocks once in a barrier must fit on one stack page: with
/// its share of heap (mailbox, scheduler slot, `Proc`) that is well under
/// 10 KiB. Stacks that straddled a page at the top and committed a canary
/// page at the bottom cost 12 KiB before any heap.
#[test]
fn a_blocked_rank_costs_under_ten_kib_resident() {
    const RANKS: usize = 8192;
    let before = vm_hwm_kib();
    WorldBuilder::new(RANKS)
        .engine(Engine::Des)
        .run(|pr| pr.world().barrier(pr))
        .expect("world runs");
    let grown = vm_hwm_kib().saturating_sub(before);
    assert!(
        grown <= 10 * RANKS,
        "VmHWM grew {grown} KiB for {RANKS} ranks ({:.1} KiB per rank)",
        grown as f64 / RANKS as f64
    );
    eprintln!("{:.2} KiB per rank", grown as f64 / RANKS as f64);
}
