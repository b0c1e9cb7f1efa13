//! The full-scale seeded fuzz runs: ≥ 10⁴ codec corruption cases and a
//! randomized token-packaging sweep, all asserting the typed-error
//! contract (zero panics) and exact round-trips at or below the
//! certified correction radius.

use dut_testkit::fuzz;

#[test]
fn rs_codec_corruption_sweep() {
    let report = fuzz::fuzz_rs_codec(0x5EED_0001, 6_000);
    report.assert_contract();
    assert_eq!(report.cases, 6_000);
}

#[test]
fn justesen_codec_corruption_sweep() {
    let report = fuzz::fuzz_justesen_codec(0x5EED_0002, 4_000);
    report.assert_contract();
    assert_eq!(report.cases, 4_000);
    assert!(report.trailing_garbage > 0, "{report:?}");
}

#[test]
fn token_packaging_fault_sweep() {
    let report = fuzz::fuzz_token_packaging(0x5EED_0003, 250);
    report.assert_contract();
}
