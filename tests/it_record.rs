//! The committed record: `results/small` is exactly what `repro all
//! --scale small --threads 1 --json DIR` writes. A change that moves a
//! published number fails here and names every moved value, so the
//! re-record that goes with it lists what it moved. (`it_shards` holds
//! `results/tiny` to its run of `all`; CI holds `results/paper` to the
//! release binary.)

use lucent_bench::drive::Driver;
use lucent_bench::{suite, Scale};
use lucent_integration::{record_dir, record_mismatches};
use lucent_support::json::to_string_pretty;

#[test]
fn the_small_record_matches_a_fresh_run() {
    let mut drv = Driver::new(Scale::Small, 1, None, false).expect("no trace spec to reject");
    let mut results = Vec::new();
    let all = suite::entry("all").expect("the suite has `all`");
    all.run(&mut drv, |done| {
        results.extend(done.value.map(|v| (done.file, to_string_pretty(&*v))));
    });
    let report = record_mismatches(&record_dir("small"), &results);
    assert!(
        report.is_empty(),
        "results/small differs from a fresh run; if the moves are meant, re-record with \
         `repro all --scale small --threads 1 --json results/small`:\n{report}"
    );
}
