//! The clippy gate's negative control: one violation per rule family.
//! `it_clippy.rs` lints it as a crate of its own under the workspace's
//! `clippy.toml` and lint table, and the run must fail naming each lint.
//! It is no target of any workspace package, so the workspace's own
//! lint run never sees it.

use std::cell::Cell;
use std::collections::HashMap;
use std::time::Instant;

use lucent_support::Rng64;

thread_local! {
    static SHARED: Cell<u64> = const { Cell::new(0) };
}

pub fn violations() -> u64 {
    let mut counts: HashMap<u64, u64> = HashMap::new();
    counts.insert(1, Instant::now().elapsed().as_secs());
    std::thread::spawn(|| SHARED.with(Cell::get));
    let mut rng = Rng64::seed_from_u64(7);
    let first = counts.get(&1).copied().unwrap();
    println!("{first}");
    let raw = &first as *const u64;
    unsafe { *raw + rng.next_u64() }
}
