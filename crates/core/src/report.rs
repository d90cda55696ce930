//! Table/figure rendering: regenerates every table and figure of the
//! paper's evaluation section from campaign data (see DESIGN.md §3 for the
//! experiment index).
//!
//! All renderers go through one [`Table`] builder so every plain-text
//! report in the workspace (paper tables, stage metrics, testbed health,
//! resume) shares one layout.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use comfort_engines::{all_versions, quota, ApiType, Component, EngineName};

use crate::campaign::CampaignReport;
use crate::compare::FuzzerSeries;
use crate::quality::QualityReport;
use crate::testcase::Origin;

/// Fixed-width plain-text table: the one table-builder every report
/// renderer in the workspace goes through.
///
/// Each cell is left-aligned, padded to its column width, and followed by
/// two spaces; free-form [`text`] lines carry footers and annotations.
///
/// [`text`]: Table::text
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    widths: Vec<usize>,
    lines: Vec<Line>,
}

#[derive(Debug, Clone)]
enum Line {
    Row(Vec<String>),
    Text(String),
}

impl Table {
    /// Creates a table with a title line and fixed column widths.
    pub fn new(title: impl Into<String>, widths: &[usize]) -> Self {
        Table { title: title.into(), widths: widths.to_vec(), lines: Vec::new() }
    }

    /// Appends one row of cells. Cells beyond the configured column count
    /// render unpadded.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        self.lines.push(Line::Row(cells.iter().map(|c| c.to_string()).collect()));
        self
    }

    /// Appends a free-form text line (totals, footers, annotations).
    pub fn text(&mut self, line: impl Into<String>) -> &mut Self {
        self.lines.push(Line::Text(line.into()));
        self
    }

    /// Renders the table as plain text (title first, one line per row).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&self.title);
        out.push('\n');
        for line in &self.lines {
            match line {
                Line::Row(cells) => {
                    for (i, cell) in cells.iter().enumerate() {
                        let w = self.widths.get(i).copied().unwrap_or(0);
                        let _ = write!(out, "{cell:<w$}  ");
                    }
                    out.push('\n');
                }
                Line::Text(text) => {
                    out.push_str(text);
                    out.push('\n');
                }
            }
        }
        out
    }
}

/// **Table 1** — the engine/version inventory.
pub fn table1() -> String {
    let mut t = Table::new("Table 1: JS engines under test", &[14, 24, 16, 12, 10]);
    t.row(&["Engine", "Version", "Build", "Released", "ES spec"]);
    for v in all_versions() {
        t.row(&[v.engine.as_str(), v.version, v.build, v.release, v.edition.as_str()]);
    }
    t.text(format!("total configurations: {}", all_versions().len()));
    t.render()
}

/// **Table 2** — per-engine bug statistics.
pub fn table2(report: &CampaignReport) -> String {
    let mut t =
        Table::new("Table 2: bug statistics per tested JS engine", &[14, 10, 10, 8, 16, 14]);
    t.row(&["Engine", "#Submitted", "#Verified", "#Fixed", "#Acc. by Test262", "(paper #Subm.)"]);
    let mut totals = (0usize, 0usize, 0usize, 0usize);
    for engine in EngineName::ALL {
        let bugs: Vec<_> = report.bugs.iter().filter(|b| b.key.engine == engine).collect();
        let submitted = bugs.len();
        let verified = bugs.iter().filter(|b| b.adjudication.verified).count();
        let fixed = bugs.iter().filter(|b| b.adjudication.fixed).count();
        let t262 = bugs.iter().filter(|b| b.adjudication.accepted_test262).count();
        totals.0 += submitted;
        totals.1 += verified;
        totals.2 += fixed;
        totals.3 += t262;
        t.row(&[
            engine.as_str(),
            &submitted.to_string(),
            &verified.to_string(),
            &fixed.to_string(),
            &t262.to_string(),
            &quota(engine).to_string(),
        ]);
    }
    t.row(&[
        "Total",
        &totals.0.to_string(),
        &totals.1.to_string(),
        &totals.2.to_string(),
        &totals.3.to_string(),
        "158",
    ]);
    t.render()
}

/// **Table 3** — bugs per engine *version* (earliest-version attribution).
pub fn table3(report: &CampaignReport) -> String {
    let mut t = Table::new("Table 3: bugs found per JS engine version", &[14, 28, 10, 10, 8, 6]);
    t.row(&["Engine", "Version", "#Submitted", "#Verified", "#Fixed", "#New"]);
    let mut by_version: BTreeMap<(EngineName, String), Vec<&crate::campaign::BugReport>> =
        BTreeMap::new();
    for b in &report.bugs {
        by_version.entry((b.key.engine, b.earliest_version.clone())).or_default().push(b);
    }
    let mut total = 0;
    for engine in EngineName::ALL {
        for ((_, version), bugs) in by_version.iter().filter(|((e, _), _)| *e == engine) {
            let verified = bugs.iter().filter(|b| b.adjudication.verified).count();
            let fixed = bugs.iter().filter(|b| b.adjudication.fixed).count();
            let new = bugs.iter().filter(|b| b.adjudication.novel).count();
            total += bugs.len();
            let version_label = version.strip_prefix(&format!("{engine} ")).unwrap_or(version);
            t.row(&[
                engine.as_str(),
                version_label,
                &bugs.len().to_string(),
                &verified.to_string(),
                &fixed.to_string(),
                &new.to_string(),
            ]);
        }
    }
    t.text(format!("total: {total}"));
    t.render()
}

/// **Table 4** — bugs by discovery mechanism.
pub fn table4(report: &CampaignReport) -> String {
    let mut t =
        Table::new("Table 4: bug statistics per generation mechanism", &[28, 10, 10, 8, 16]);
    t.row(&["Category", "#Submitted", "#Confirmed", "#Fixed", "#Acc. by Test262"]);
    for origin in [Origin::ProgramGen, Origin::EcmaMutation] {
        let bugs: Vec<_> = report.bugs.iter().filter(|b| b.origin == origin).collect();
        let confirmed = bugs.iter().filter(|b| b.adjudication.verified).count();
        let fixed = bugs.iter().filter(|b| b.adjudication.fixed).count();
        let t262 = bugs.iter().filter(|b| b.adjudication.accepted_test262).count();
        t.row(&[
            origin.as_str(),
            &bugs.len().to_string(),
            &confirmed.to_string(),
            &fixed.to_string(),
            &t262.to_string(),
        ]);
    }
    t.render()
}

/// **Table 5** — top buggy object types.
pub fn table5(report: &CampaignReport) -> String {
    let mut t = Table::new("Table 5: statistics on buggy object types", &[14, 10, 10, 8]);
    t.row(&["API Type", "#Submitted", "#Confirmed", "#Fixed"]);
    let mut counts: BTreeMap<&'static str, (usize, usize, usize)> = BTreeMap::new();
    for b in &report.bugs {
        if b.api_type == ApiType::NonApi {
            continue;
        }
        let slot = counts.entry(b.api_type.as_str()).or_default();
        slot.0 += 1;
        if b.adjudication.verified {
            slot.1 += 1;
        }
        if b.adjudication.fixed {
            slot.2 += 1;
        }
    }
    let mut rows: Vec<_> = counts.into_iter().collect();
    rows.sort_by_key(|(_, (s, _, _))| std::cmp::Reverse(*s));
    let mut totals = (0, 0, 0);
    for (ty, (s, c, f)) in rows.iter().take(10) {
        totals.0 += s;
        totals.1 += c;
        totals.2 += f;
        t.row(&[ty, &s.to_string(), &c.to_string(), &f.to_string()]);
    }
    t.row(&["Total", &totals.0.to_string(), &totals.1.to_string(), &totals.2.to_string()]);
    t.render()
}

/// **Figure 7** — bugs per affected compiler component (plus strict-only).
pub fn figure7(report: &CampaignReport) -> String {
    let mut t = Table::new("Figure 7: bugs per compiler component", &[16, 10, 10, 8]);
    t.row(&["Component", "#Submitted", "#Confirmed", "#Fixed"]);
    for component in Component::ALL {
        let bugs: Vec<_> = report.bugs.iter().filter(|b| b.component == component).collect();
        let confirmed = bugs.iter().filter(|b| b.adjudication.verified).count();
        let fixed = bugs.iter().filter(|b| b.adjudication.fixed).count();
        t.row(&[
            component.as_str(),
            &bugs.len().to_string(),
            &confirmed.to_string(),
            &fixed.to_string(),
        ]);
    }
    let strict_only = report.bugs.iter().filter(|b| b.strict_only).count();
    t.text(format!("Strict-mode-only bugs: {strict_only}"));
    t.render()
}

/// **Stage metrics** — the per-stage counter table from the campaign's
/// embedded telemetry (`CampaignMetrics`): invocations, items, logical
/// cost, and wall-clock time per pipeline stage, plus the funnel counters.
pub fn stage_metrics(report: &CampaignReport) -> String {
    use comfort_telemetry::Stage;
    let m = &report.metrics;
    let mut t = Table::new("Stage metrics: pipeline counters per stage", &[14, 12, 10, 14, 12]);
    t.row(&["Stage", "Invocations", "Items", "Logical cost", "Wall (ms)"]);
    for stage in Stage::ALL {
        let s = m.stage(stage);
        t.row(&[
            stage.as_str(),
            &s.invocations.to_string(),
            &s.items.to_string(),
            &s.logical_cost.to_string(),
            &format!("{:.1}", s.wall_nanos as f64 / 1e6),
        ]);
    }
    t.text(format!(
        "funnel: {} generated, {} rejected, {} run → {} deviations → {} bugs (+{} deduped) \
         across {} shard(s)",
        m.cases_generated,
        m.cases_rejected,
        m.cases_run,
        m.deviations_observed,
        m.bugs_reported,
        m.bugs_deduped,
        m.shards
    ));
    t.render()
}

/// **Health report** — the per-testbed fault ledger from the hardened
/// execution layer: successful runs, fault counts by kind, retries, and
/// quarantine state (see DESIGN.md §9).
pub fn health_report(report: &CampaignReport) -> String {
    let mut t = Table::new(
        "Testbed health: faults, retries, and quarantine per testbed",
        &[30, 8, 7, 6, 10, 6, 8, 8, 7, 12],
    );
    t.row(&[
        "Testbed",
        "Runs OK",
        "Panics",
        "Hangs",
        "Transient",
        "Trunc",
        "Retries",
        "Skipped",
        "Reinst",
        "State",
    ]);
    let mut total_faults = 0u64;
    let mut quarantined = 0usize;
    for h in &report.health {
        total_faults += h.faults();
        let state = if h.quarantined { "QUARANTINED" } else { "healthy" };
        if h.quarantined {
            quarantined += 1;
        }
        t.row(&[
            &h.label,
            &h.runs_ok.to_string(),
            &h.panics.to_string(),
            &h.hangs.to_string(),
            &h.transients_exhausted.to_string(),
            &h.outputs_truncated.to_string(),
            &h.retries.to_string(),
            &h.runs_skipped.to_string(),
            &h.reinstatements.to_string(),
            state,
        ]);
    }
    t.text(format!(
        "total: {} fault(s) observed across {} testbed(s), {} quarantined",
        total_faults,
        report.health.len(),
        quarantined
    ));
    t.render()
}

/// **Resume report** — how a checkpointed campaign recovered: shards
/// salvaged from the journal vs. re-run, bytes dropped from a torn tail,
/// and fresh checkpoints written (see DESIGN.md §10).
pub fn resume_report(report: &CampaignReport) -> String {
    let mut t = Table::new("Campaign durability: checkpoint & resume", &[26, 44]);
    let Some(resume) = &report.resume else {
        t.text("(fresh run: no journal was resumed)");
        if report.interrupted {
            t.text("status: INTERRUPTED before the case budget completed");
        }
        return t.render();
    };
    t.row(&["Resumed from", &resume.resumed_from]);
    t.row(&["Shards salvaged", &format!("{} of {}", resume.shards_salvaged, resume.shards_total)]);
    t.row(&["Shards re-run", &resume.shards_rerun.to_string()]);
    t.row(&["Dropped tail bytes", &resume.dropped_tail_bytes.to_string()]);
    t.row(&["Checkpoints written", &resume.checkpoints_written.to_string()]);
    let status = if report.interrupted { "INTERRUPTED" } else { "complete" };
    t.row(&["Status", status]);
    t.render()
}

/// **Journal inspection** — pretty-prints a checkpoint journal's header,
/// salvaged shard records, lease history, and recovery outcome. Backs
/// `comfortctl journal inspect`, the operator's first debugging tool for a
/// supervised campaign that died mid-flight.
pub fn journal_report(
    checkpoint: &crate::checkpoint::CampaignCheckpoint,
    recovery: &crate::checkpoint::RecoveryReport,
) -> String {
    use crate::checkpoint::LeaseAction;

    let mut t = Table::new("Checkpoint journal", &[26, 44]);
    t.row(&["Fingerprint", &format!("{:#018x}", checkpoint.fingerprint)]);
    t.row(&["Shards planned", &checkpoint.shards_total.to_string()]);
    t.row(&[
        "Shards salvaged",
        &format!("{} of {}", recovery.shards_salvaged, checkpoint.shards_total),
    ]);
    t.row(&["Lease records", &recovery.leases_salvaged.to_string()]);
    t.row(&["Journal bytes", &recovery.journal_bytes.to_string()]);
    t.row(&["Dropped tail bytes", &recovery.dropped_tail_bytes.to_string()]);
    if let Some(err) = &recovery.tail_error {
        t.row(&["Tail error", err]);
    }
    let mut out = t.render();

    if !checkpoint.shards.is_empty() {
        let mut shards = Table::new("Salvaged shard records", &[6, 20, 8, 10, 6, 8]);
        shards.row(&["Shard", "Seed", "Cases", "Cases run", "Bugs", "Events"]);
        for record in &checkpoint.shards {
            shards.row(&[
                &record.index.to_string(),
                &format!("{:#x}", record.seed),
                &record.cases.to_string(),
                &record.report.cases_run.to_string(),
                &record.report.bugs.len().to_string(),
                &record.events.len().to_string(),
            ]);
        }
        out.push('\n');
        out.push_str(&shards.render());
    }

    if !checkpoint.leases.is_empty() {
        let mut leases = Table::new("Lease history (journal order)", &[6, 18, 11, 6, 10, 16]);
        leases.row(&["Shard", "Worker", "Action", "Seq", "TTL ms", "Unix ms"]);
        for lease in &checkpoint.leases {
            leases.row(&[
                &lease.shard.to_string(),
                &lease.worker,
                lease.action.as_str(),
                &lease.lease_seq.to_string(),
                &lease.ttl_millis.to_string(),
                &lease.unix_millis.to_string(),
            ]);
        }
        let held = checkpoint
            .latest_leases()
            .into_iter()
            .filter(|l| {
                matches!(l.action, LeaseAction::Acquired | LeaseAction::Renewed)
                    && !checkpoint.shards.iter().any(|s| s.index == l.shard)
            })
            .map(|l| format!("{} (held by {})", l.shard, l.worker))
            .collect::<Vec<_>>();
        if held.is_empty() {
            leases.text("no shard was held when the journal stopped");
        } else {
            leases.text(format!(
                "held at journal end, no shard record — holder died mid-shard: {}",
                held.join(", ")
            ));
        }
        out.push('\n');
        out.push_str(&leases.render());
    }
    out
}

/// **Figure 8** — fuzzer comparison over the testing budget.
pub fn figure8(series: &[FuzzerSeries]) -> String {
    let mut t = Table::new(
        "Figure 8: unique bugs per fuzzer (equal budgets; confirm/fix window applied)",
        &[16, 8, 10, 8, 10],
    );
    t.row(&["Fuzzer", "#Bugs", "#Confirmed", "#Fixed", "#Exclusive"]);
    for s in series {
        t.row(&[
            &s.name,
            &s.unique_bugs.to_string(),
            &s.confirmed.to_string(),
            &s.fixed.to_string(),
            &s.exclusive.to_string(),
        ]);
    }
    t.text("\nDiscovery timeline (hours → cumulative unique bugs):");
    for s in series {
        let pts: Vec<String> = s.discoveries.iter().map(|(h, n)| format!("{h:.1}h:{n}")).collect();
        t.text(format!("  {:<16} {}", s.name, pts.join(" ")));
    }
    t.render()
}

/// **Figure 9** — syntax validity + coverage per fuzzer.
pub fn figure9(reports: &[QualityReport]) -> String {
    let mut t = Table::new("Figure 9: test-case quality per fuzzer", &[16, 12, 12, 10, 10, 10]);
    t.row(&["Fuzzer", "#Generated", "Syntax pass", "Stmt cov", "Func cov", "Branch cov"]);
    let pct = |v: f64| if v.is_nan() { "n/a".to_string() } else { format!("{:.1}%", v * 100.0) };
    for q in reports {
        t.row(&[
            &q.fuzzer,
            &q.generated.to_string(),
            &pct(q.syntax_pass_rate),
            &pct(q.stmt_coverage),
            &pct(q.func_coverage),
            &pct(q.branch_coverage),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Adjudication, BugReport};
    use crate::differential::DeviationKind;
    use crate::filter::BugKey;

    fn fake_report() -> CampaignReport {
        let mk = |engine: EngineName, api: &str, origin: Origin| BugReport {
            key: BugKey { engine, api: Some(api.to_string()), behavior: "WrongOutput".into() },
            sim_hours: 1.0,
            test_case: "print(1);".into(),
            origin,
            earliest_version: "v1".into(),
            kind: DeviationKind::WrongOutput,
            strict_only: false,
            component: Component::Implementation,
            api_type: ApiType::String,
            matched_bug: None,
            adjudication: Adjudication {
                verified: true,
                fixed: true,
                rejected: false,
                accepted_test262: false,
                novel: true,
            },
        };
        CampaignReport {
            cases_run: 10,
            bugs: vec![
                mk(EngineName::Rhino, "substr", Origin::EcmaMutation),
                mk(EngineName::V8, "slice", Origin::ProgramGen),
            ],
            ..CampaignReport::default()
        }
    }

    #[test]
    fn table_builder_pads_and_orders_lines() {
        let mut t = Table::new("T: demo", &[4, 3]);
        t.row(&["ab", "c"]).row(&["x", "yz"]).text("footer");
        assert_eq!(t.render(), "T: demo\nab    c    \nx     yz   \nfooter\n");
    }

    #[test]
    fn table_builder_leaves_overflow_cells_unpadded() {
        let mut t = Table::new("T", &[2]);
        t.row(&["abcd", "extra"]);
        assert_eq!(t.render(), "T\nabcd  extra  \n");
    }

    #[test]
    fn table1_lists_51_rows() {
        let t = table1();
        assert!(t.contains("total configurations: 51"));
        assert!(t.contains("Rhino"));
        assert!(t.contains("ES2015"));
    }

    #[test]
    fn table2_has_all_engines_and_totals() {
        let t = table2(&fake_report());
        for e in EngineName::ALL {
            assert!(t.contains(e.as_str()), "missing {e}");
        }
        assert!(t.contains("Total"));
    }

    #[test]
    fn tables_render_without_panicking() {
        let r = fake_report();
        assert!(table3(&r).contains("Rhino"));
        assert!(table4(&r).contains("ECMA-262"));
        assert!(table5(&r).contains("String"));
        assert!(figure7(&r).contains("Implementation"));
    }

    #[test]
    fn stage_metrics_renders_every_stage_and_the_funnel() {
        let mut r = fake_report();
        r.metrics.cases_run = 10;
        r.metrics.bugs_reported = 2;
        r.metrics.stage_mut(comfort_telemetry::Stage::Differential).record(100, 100, 2_000_000);
        let t = stage_metrics(&r);
        for stage in comfort_telemetry::Stage::ALL {
            assert!(t.contains(stage.as_str()), "missing {stage}");
        }
        assert!(t.contains("funnel: "));
        assert!(t.contains("2 bugs"));
    }
}
