//! `ssync-lab tier` prints the kernel tier the build dispatches, the
//! value `scripts/ledger.sh` stamps on every ledger row.

use std::process::Command;

#[test]
fn tier_subcommand_prints_the_dispatched_tier() {
    let out = Command::new(env!("CARGO_BIN_EXE_ssync-lab"))
        .arg("tier")
        .output()
        .expect("ssync-lab runs");
    assert!(out.status.success(), "{out:?}");
    let printed = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(printed, format!("{}\n", ssync_dsp::simd::tier().name()));
}
