//! Fixture library file that must trip every file-scoped rule. It is
//! lexed by the audit tests, never compiled, so it does not need to
//! build against the real workspace.

use std::collections::HashMap;

pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn wall_secs() -> u64 {
    let t = std::time::SystemTime::now();
    t.elapsed().map(|d| d.as_secs()).unwrap_or(0)
}

pub fn histogram(xs: &[u64]) -> usize {
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for &x in xs {
        *counts.entry(x).or_insert(0) += 1;
    }
    counts.len()
}

pub fn unseeded() -> u64 {
    let mut rng = StdRng::seed_from_u64(0xDEAD_BEEF);
    rng.next_u64()
}

// pcm-audit: allow(made-up-rule) — the rule id does not exist
pub fn first(xs: &[u64]) -> u64 {
    xs.first().copied().unwrap()
}

// pcm-audit: allow(panic-macro)
pub fn boom() -> ! {
    panic!("fixture panic with a reason-less pragma above")
}

pub unsafe fn read_raw(p: *const u8) -> u8 {
    *p
}

pub fn fan_out(xs: &[u64]) -> u64 {
    std::thread::scope(|s| {
        let h = s.spawn(|| xs.iter().sum::<u64>());
        h.join().unwrap_or(0)
    })
}

pub fn fire_and_forget() {
    std::thread::spawn(|| ());
}

pub struct SharedBank {
    pub state: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
}

pub type GuardedFleet = std::sync::Arc<std::sync::RwLock<u64>>;
