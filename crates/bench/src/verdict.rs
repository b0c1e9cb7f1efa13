//! Machine-checkable experiment verdicts.
//!
//! Each experiment module renders tables for humans; this module holds
//! the *invariants* those tables must satisfy for the experiment's
//! paper claim to hold — the same assertions the modules' unit tests
//! make, lifted into one place so that:
//!
//! * the `experiments` binary can re-evaluate every verdict on each
//!   run (`--check` exits non-zero when a verdict regresses from the
//!   recorded `EXPERIMENTS.md` state), and
//! * the per-module tests and the CI smoke lane can never drift apart
//!   — both call [`check`].
//!
//! A verdict failing means the *claim* check failed on this run's
//! numbers, not that the code crashed; the `Err` carries the first
//! violated invariant with the offending row.

use crate::table::Table;

/// The recorded verdict summary, compiled in so the binary needs no
/// filesystem access to know what EXPERIMENTS.md claims.
const EXPERIMENTS_MD: &str = include_str!("../../../EXPERIMENTS.md");

/// Whether `EXPERIMENTS.md` records experiment `id` (canonical form,
/// e.g. `"e7"`) as holding. Parses the "Verdict summary" table: a row
/// `| E7 | ... | **Holds ... |` records `true`; any other verdict
/// records `false`. Returns `None` if the experiment has no recorded
/// row.
pub fn recorded_holds(id: &str) -> Option<bool> {
    let tag = format!("| {} |", id.to_ascii_uppercase());
    for line in EXPERIMENTS_MD.lines() {
        if let Some(rest) = line.strip_prefix(&tag) {
            let verdict = rest.rsplit('|').nth(1).unwrap_or("");
            return Some(verdict.trim_start().starts_with("**Holds"));
        }
    }
    None
}

/// Evaluates experiment `id`'s invariants against its just-rendered
/// `tables`. `Ok(())` means the paper claim held on this run;
/// `Err(reason)` names the first violated invariant.
///
/// # Panics
///
/// Panics on an unknown id (same contract as
/// [`crate::run_experiment`]).
pub fn check(id: &str, tables: &[Table]) -> Result<(), String> {
    match id {
        "e1" => check_e1(tables),
        "e2" => check_e2(tables),
        "e3" => check_e3(tables),
        "e4" => check_e4(tables),
        "e5" => check_e5(tables),
        "e6" => check_e6(tables),
        "e7" => check_e7(tables),
        "e8" => check_e8(tables),
        "e9" => check_e9(tables),
        "e10" => check_e10(tables),
        "e11" => check_e11(tables),
        "e12" => check_e12(tables),
        "e13" => check_e13(tables),
        "e14" => check_e14(tables),
        "e15" => check_e15(tables),
        "e16" => check_e16(tables),
        other => panic!("unknown experiment id: {other}"),
    }
}

// ------------------------------------------------------------- helpers

fn fail(table: &Table, row: &[String], what: &str) -> String {
    format!("{}: {what} (row {row:?})", table.title)
}

fn num(table: &Table, row: &[String], col: usize) -> Result<f64, String> {
    row.get(col)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| fail(table, row, &format!("column {col} is not a number")))
}

/// Column `col` of row `r`: the unrounded value the table keeps behind
/// the cell, else the parsed cell.
fn exact_num(table: &Table, r: usize, col: usize) -> Result<f64, String> {
    match table.exact.get(&(r, col)) {
        Some(&value) => Ok(value),
        None => num(table, &table.rows[r], col),
    }
}

/// Parses the leading number of a `"rate [lo, hi]"` or `"x/y"` cell.
fn leading_num(table: &Table, row: &[String], col: usize) -> Result<f64, String> {
    row.get(col)
        .and_then(|c| c.split([' ', '/']).next())
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| fail(table, row, &format!("column {col} has no leading number")))
}

/// Parses an `"x/y"` counter cell.
fn ratio_cell(table: &Table, row: &[String], col: usize) -> Result<(usize, usize), String> {
    let parse = || {
        let (a, b) = row.get(col)?.split_once('/')?;
        Some((a.parse().ok()?, b.parse().ok()?))
    };
    parse().ok_or_else(|| fail(table, row, &format!("column {col} is not x/y")))
}

/// Parses the `[lo, hi]` interval of a `"rate [lo, hi]"` cell.
fn interval(table: &Table, row: &[String], col: usize) -> Result<(f64, f64), String> {
    let parse = || {
        let cell = row.get(col)?;
        let inner = cell.split_once('[')?.1.strip_suffix(']')?;
        let (lo, hi) = inner.split_once(',')?;
        Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
    };
    parse().ok_or_else(|| fail(table, row, &format!("column {col} is not rate [lo, hi]")))
}

// ------------------------------------------------------ per-experiment

/// E1 (Lemma 3.4): every completeness and soundness row shows ok.
fn check_e1(tables: &[Table]) -> Result<(), String> {
    for t in tables {
        if t.rows.is_empty() {
            return Err(format!("{}: no rows", t.title));
        }
        for row in &t.rows {
            if row.last().map(String::as_str) != Some("true") {
                return Err(fail(t, row, "bound violated"));
            }
        }
    }
    Ok(())
}

/// E2 (Theorem 3.1): s(s−1)/(2δn) ≤ 1, and > 0.8 once s ≥ 10.
fn check_e2(tables: &[Table]) -> Result<(), String> {
    let t = &tables[0];
    for row in &t.rows {
        let ratio = num(t, row, 3)?;
        if ratio > 1.0 + 1e-9 {
            return Err(fail(t, row, "ratio above 1"));
        }
        if num(t, row, 2)? >= 10.0 && ratio <= 0.8 {
            return Err(fail(t, row, "ratio below 0.8 at nontrivial s"));
        }
    }
    Ok(())
}

/// E3 (Theorem 1.1): completeness protected, per-node separation, and
/// the Monte-Carlo cross-check brackets the exact rejection rate. The
/// per-node rates are read unrounded: at full scale both fall below
/// 5·10⁻⁵, where their 4-decimal cells both read `0.0000`.
fn check_e3(tables: &[Table]) -> Result<(), String> {
    let t = &tables[0];
    for (r, row) in t.rows.iter().enumerate() {
        if row[4] == "-" {
            continue; // honestly-reported plan failure
        }
        if num(t, row, 7)? >= 0.4 {
            return Err(fail(t, row, "completeness error too high"));
        }
        let (pu, pf) = (exact_num(t, r, 4)?, exact_num(t, r, 5)?);
        if pf <= pu {
            return Err(fail(t, row, "no per-node separation"));
        }
        let (lo, hi) = interval(t, row, 6)?;
        if pf < lo - 1e-4 || pf > hi + 1e-4 {
            return Err(fail(t, row, "MC interval misses the exact rate"));
        }
    }
    Ok(())
}

/// E4 (Theorem 1.2): both error sides ≤ 0.4 and threshold beats AND
/// and centralized sample counts.
fn check_e4(tables: &[Table]) -> Result<(), String> {
    let t = &tables[0];
    for row in &t.rows {
        if row[4] == "-" {
            continue;
        }
        if num(t, row, 7)? > 0.4 || num(t, row, 8)? > 0.4 {
            return Err(fail(t, row, "error side above 0.4"));
        }
    }
    let c = &tables[1];
    for row in &c.rows {
        let thr = num(c, row, 1)?;
        if thr >= num(c, row, 3)? {
            return Err(fail(c, row, "threshold not below centralized"));
        }
        if let Ok(and) = row[2].parse::<f64>() {
            if thr > and {
                return Err(fail(c, row, "threshold not below AND"));
            }
        }
    }
    Ok(())
}

/// E5 (§4 + Lemma 4.1): cost-law constant stable, AND strictly
/// costlier, lemma never violated.
fn check_e5(tables: &[Table]) -> Result<(), String> {
    let t = &tables[0];
    let mut ratios = Vec::new();
    for row in &t.rows {
        ratios.push(num(t, row, 4)?);
    }
    let spread = ratios.iter().cloned().fold(f64::MIN, f64::max)
        / ratios.iter().cloned().fold(f64::MAX, f64::min);
    // NaN-propagating on purpose: a NaN spread must fail the check.
    if !matches!(spread.partial_cmp(&2.0), Some(std::cmp::Ordering::Less)) {
        return Err(format!(
            "{}: cost-law constant varies too much ({ratios:?})",
            t.title
        ));
    }
    let a = &tables[1];
    for row in &a.rows {
        if num(a, row, 4)? <= 1.0 {
            return Err(fail(a, row, "AND rule not strictly costlier"));
        }
    }
    let l = &tables[2];
    for row in &l.rows {
        if num(l, row, 2)? > 1.0 + 1e-9 {
            return Err(fail(l, row, "Lemma 4.1 violated"));
        }
    }
    Ok(())
}

/// E6 (Theorems 5.1 + 1.4): rounds stay O(D + τ) and far inputs
/// reject at least as often as uniform.
fn check_e6(tables: &[Table]) -> Result<(), String> {
    // Same invariants for E6 (materialized topologies) and E6b
    // (implicit families) — the protocol must not care how neighbor
    // lists are produced.
    for t in tables {
        for row in &t.rows {
            if num(t, row, 4)? >= 10.0 {
                return Err(fail(t, row, "rounds not O(D + tau)"));
            }
            let (ru, _) = ratio_cell(t, row, 7)?;
            let (rf, _) = ratio_cell(t, row, 8)?;
            if rf < ru {
                return Err(fail(t, row, "no separation"));
            }
        }
    }
    Ok(())
}

/// E7 (§6): MIS and gathering bounds hold on every feasible topology,
/// with far/uniform separation.
fn check_e7(tables: &[Table]) -> Result<(), String> {
    let t = &tables[0];
    for row in &t.rows {
        if row[1] == "—" {
            continue; // honestly-reported infeasible topology
        }
        if num(t, row, 2)? > num(t, row, 3)? {
            return Err(fail(t, row, "MIS bound violated"));
        }
        if num(t, row, 4)? < num(t, row, 5)? {
            return Err(fail(t, row, "gathering bound violated"));
        }
        let (ru, _) = ratio_cell(t, row, 7)?;
        let (rf, _) = ratio_cell(t, row, 8)?;
        if rf < ru {
            return Err(fail(t, row, "no separation"));
        }
    }
    Ok(())
}

/// E8 (Lemma 7.3 vs Theorem 7.2): cost between the bounds and NO-pair
/// rejection reaches the τδ target.
fn check_e8(tables: &[Table]) -> Result<(), String> {
    let t = &tables[0];
    for row in &t.rows {
        let cost = num(t, row, 1)?;
        if cost > 3.0 * num(t, row, 2)? + 40.0 {
            return Err(fail(t, row, "cost above the upper-bound shape"));
        }
        if cost < num(t, row, 3)? {
            return Err(fail(t, row, "cost below the lower bound"));
        }
        if leading_num(t, row, 4)? < 0.8 * num(t, row, 5)? {
            return Err(fail(t, row, "rejection below the τδ target"));
        }
    }
    Ok(())
}

/// E9 (Lemma 2.1): lhs/rhs ≥ 1 on the whole grid.
fn check_e9(tables: &[Table]) -> Result<(), String> {
    let t = &tables[0];
    for row in &t.rows {
        if num(t, row, 4)? < 1.0 {
            return Err(fail(t, row, "Lemma 2.1 violated"));
        }
    }
    Ok(())
}

/// E10 (centralized baselines): error decreases with samples and ends
/// under 1/3.
fn check_e10(tables: &[Table]) -> Result<(), String> {
    let t = &tables[0];
    let mut errs = Vec::new();
    for row in &t.rows {
        errs.push(num(t, row, 2)?);
    }
    let (Some(first), Some(last)) = (errs.first(), errs.last()) else {
        return Err(format!("{}: no rows", t.title));
    };
    if last >= first {
        return Err(format!("{}: error not decreasing ({errs:?})", t.title));
    }
    if *last >= 1.0 / 3.0 {
        return Err(format!("{}: final error above 1/3 ({errs:?})", t.title));
    }
    Ok(())
}

/// E11 (§1 filter reduction): every tested pair keeps its error low
/// (rate ≤ 0.4 centralized, count ≤ trials/2 distributed).
fn check_e11(tables: &[Table]) -> Result<(), String> {
    let t = &tables[0];
    if t.rows.len() < 2 {
        return Err(format!("{}: too few rows", t.title));
    }
    for row in &t.rows {
        let err = leading_num(t, row, 3)?;
        let bound = if row[3].contains('/') {
            ratio_cell(t, row, 3)?.1 as f64 / 2.0
        } else {
            0.4
        };
        if err > bound {
            return Err(fail(t, row, "error rate too high"));
        }
    }
    Ok(())
}

/// E12 (Theorem 1.3): error ≈ 1/2 far below √(n/k) and falls across
/// the sweep.
fn check_e12(tables: &[Table]) -> Result<(), String> {
    let t = &tables[0];
    let (Some(first), Some(last)) = (t.rows.first(), t.rows.last()) else {
        return Err(format!("{}: no rows", t.title));
    };
    let first_err = num(t, first, 2)?;
    let last_err = num(t, last, 2)?;
    if first_err <= 0.3 {
        return Err(fail(t, first, "below-threshold testers should fail"));
    }
    if last_err >= first_err {
        return Err(fail(t, last, "no error transition across the sweep"));
    }
    Ok(())
}

/// E13 (fault injection): the fault-free control is clean and
/// sub-radius flips are fully absorbed by the codec.
fn check_e13(tables: &[Table]) -> Result<(), String> {
    let t = &tables[0];
    if t.rows.len() < 2 {
        return Err(format!("{}: too few rows", t.title));
    }
    let control = &t.rows[0];
    let (survived, total) = ratio_cell(t, control, 2)?;
    if survived != total {
        return Err(fail(t, control, "fault-free runs must all survive"));
    }
    if control[3] != "0" || control[5] != "0" {
        return Err(fail(t, control, "corrections/retransmits without faults"));
    }
    let flips = &t.rows[1];
    let (survived, total) = ratio_cell(t, flips, 2)?;
    if survived != total {
        return Err(fail(t, flips, "sub-radius flips must be corrected"));
    }
    if num(t, flips, 3)? <= 0.0 {
        return Err(fail(t, flips, "flips must actually be injected"));
    }
    if flips[4] != "0" {
        return Err(fail(t, flips, "decode failures below the radius"));
    }
    Ok(())
}

/// E14 (streaming service): every shard count sustains positive
/// throughput, verdicts are bit-identical across shard counts, and the
/// coordinator separates uniform from Paninski-far traffic.
fn check_e14(tables: &[Table]) -> Result<(), String> {
    let perf = &tables[0];
    if perf.rows.is_empty() {
        return Err(format!("{}: no rows", perf.title));
    }
    for row in &perf.rows {
        if num(perf, row, 3)? <= 0.0 {
            return Err(fail(perf, row, "non-positive throughput"));
        }
    }
    let sep = &tables[1];
    if sep.rows.len() < 2 {
        return Err(format!("{}: too few rows", sep.title));
    }
    for row in &sep.rows {
        if row[4] != "true" {
            return Err(fail(sep, row, "verdict differs across shard counts"));
        }
        let expect = match row[0].as_str() {
            "uniform" => "Uniform",
            "far" => "Far",
            other => return Err(fail(sep, row, &format!("unknown input {other}"))),
        };
        if row[2] != expect {
            return Err(fail(sep, row, "coordinator verdict misses the input"));
        }
    }
    Ok(())
}

/// E15 (soak harness): zero silent verdict flips across the horizon,
/// resolved verdicts match the traffic (and end resolved), every
/// scheduled crash/rejoin cycle recovered, and per-tick retransmits
/// stay flat (second-half mean ≤ 2x first-half mean + 8).
fn check_e15(tables: &[Table]) -> Result<(), String> {
    let t = &tables[0];
    if t.rows.len() < 4 {
        return Err(format!("{}: too few ticks", t.title));
    }
    let mut retx = Vec::new();
    for row in &t.rows {
        if row[3] == "Far" {
            return Err(fail(t, row, "uniform traffic resolved Far"));
        }
        if row[4] == "Uniform" {
            return Err(fail(t, row, "far traffic resolved Uniform"));
        }
        if row[5] != "0" {
            return Err(fail(t, row, "silent verdict flip"));
        }
        if row[6] != "ok" {
            return Err(fail(t, row, "pipeline run not absorbed"));
        }
        retx.push(num(t, row, 8)?);
    }
    let last = t.rows.last().expect("non-empty");
    if last[3] != "Uniform" || last[4] != "Far" {
        return Err(fail(t, last, "horizon ends with an unresolved verdict"));
    }
    let half = retx.len() / 2;
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let (early, late) = (mean(&retx[..half]), mean(&retx[half..]));
    if late > 2.0 * early + 8.0 {
        return Err(format!(
            "{}: retransmit growth not bounded (first-half mean {early:.2}, \
             second-half mean {late:.2})",
            t.title
        ));
    }
    let h = &tables[1];
    if h.rows.len() < 2 {
        return Err(format!("{}: recovery histogram too narrow", h.title));
    }
    for row in &h.rows {
        if num(h, row, 1)? != num(h, row, 2)? {
            return Err(fail(h, row, "scheduled outage not recovered"));
        }
    }
    Ok(())
}

/// E16 (conductance testing): expanders accepted, bridged two-cliques
/// rejected — on the plain and on the robust (coded/ARQ, flips
/// injected) pipeline — the realized round count stays within 1.5x the
/// D + ln k/(ε·Φ²) envelope, and the walk census is bit-identical on
/// every engine, clean and faulted.
fn check_e16(tables: &[Table]) -> Result<(), String> {
    let sep = &tables[0];
    if sep.rows.len() < 4 {
        return Err(format!("{}: too few pipeline rows", sep.title));
    }
    let (mut saw_robust, mut saw_accept, mut saw_reject) = (false, false, false);
    for row in &sep.rows {
        let expect = match row[0].as_str() {
            "margulis" => "accept",
            "bridged-cliques" => "reject",
            other => return Err(fail(sep, row, &format!("unknown instance {other}"))),
        };
        if row[3] != expect {
            return Err(fail(sep, row, "verdict misses the instance class"));
        }
        saw_accept |= expect == "accept";
        saw_reject |= expect == "reject";
        saw_robust |= row[1].starts_with("robust");
        if num(sep, row, 8)? > 1.5 {
            return Err(fail(sep, row, "round count exceeds 1.5x the theory bound"));
        }
    }
    if !(saw_accept && saw_reject && saw_robust) {
        return Err(format!(
            "{}: sweep must cover accept, reject, and a robust pipeline row",
            sep.title
        ));
    }
    let ident = &tables[1];
    if ident.rows.len() < 4 {
        return Err(format!("{}: too few engine rows", ident.title));
    }
    let mut fp_by_plan: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
    for row in &ident.rows {
        if row[5] != "yes" {
            return Err(fail(ident, row, "engine diverged from the serial census"));
        }
        match fp_by_plan.entry(row[0].as_str()) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(row[4].as_str());
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                if *e.get() != row[4].as_str() {
                    return Err(fail(
                        ident,
                        row,
                        "census fingerprint differs across engines",
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_verdicts_cover_all_experiments() {
        for id in crate::ALL_EXPERIMENTS {
            assert!(recorded_holds(id).is_some(), "no recorded verdict for {id}");
        }
        assert_eq!(recorded_holds("e99"), None);
    }

    #[test]
    fn failing_tables_produce_named_violations() {
        let mut t = Table::new("T", "c", &["n", "eps", "s", "delta", "reject", "ok"]);
        t.push_row(vec![
            "16".into(),
            "1".into(),
            "4".into(),
            "0.01".into(),
            "0.5".into(),
            "false".into(),
        ]);
        let err = check("e1", &[t]).unwrap_err();
        assert!(err.contains("bound violated"), "{err}");
    }

    /// An E3 row at full-scale magnitudes: both per-node rates render
    /// as `0.0000`, and the verdict follows the unrounded values.
    #[test]
    fn e3_separation_reads_unrounded_rates() {
        let e3 = |pu: f64, pf: f64| {
            let mut t = Table::new(
                "E3",
                "c",
                &[
                    "k", "m", "s", "theory", "pu", "pf", "mc", "comp", "sound", "feasible",
                ],
            );
            let cells = [
                "65536",
                "2",
                "144",
                "1560",
                "0.0000",
                "0.0000",
                "0.0000 [0.0000, 0.0000]",
                "0.3219",
                "0.3878",
                "false",
            ];
            t.push_row(cells.map(String::from).to_vec());
            t.set_exact(4, pu);
            t.set_exact(5, pf);
            check("e3", &[t])
        };
        assert_eq!(e3(4.9e-6, 1.1e-5), Ok(()));
        let err = e3(1.1e-5, 4.9e-6).unwrap_err();
        assert!(err.contains("no per-node separation"), "{err}");
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_id_panics() {
        let _ = check("e99", &[]);
    }
}
