//! Figures 6 and 7: relation-modeling depth on ICEWS18 — entity forecasting
//! (Fig. 6) and relation forecasting (Fig. 7) across `wo. RM`, `w. MP`,
//! `w. MP+LSTM` (the RE-GCN/TiRGN level) and `w. MP+LSTM+Agg` (full RETIA).
//! `w. MP+LSTM` is RETIA with `RelationMode::MpLstm` and nothing else
//! changed, which is the CEN configuration, so its row is CEN's run.

use retia_bench::report::Report;
use retia_bench::{run_experiment, Settings, Variant};
use retia_data::DatasetProfile;

fn main() {
    let settings = Settings::from_env();
    let profile = DatasetProfile::Icews18;
    let mut rep = Report::new("Figures 6-7: relation modeling depth (ICEWS18)");
    rep.line("Paper shape: relation forecasting is destroyed without relation");
    rep.line("modeling; each added level helps; the hyperrelation aggregation");
    rep.line("(+Agg, the message-islands fix) improves both tasks over MP+LSTM.");
    rep.blank();

    let variants = [
        ("wo. RM", Variant::RetiaRmNone),
        ("w. MP", Variant::RetiaRmMp),
        ("w. MP+LSTM", Variant::Cen),
        ("w. MP+LSTM+Agg", Variant::Retia),
    ];

    rep.line("Figure 6 — entity forecasting:");
    rep.line(&format!("{:<16} {:>8} {:>8} {:>8} {:>8}", "variant", "MRR", "H@1", "H@3", "H@10"));
    for (label, variant) in variants {
        let r = run_experiment(profile, variant, &settings);
        rep.line(&format!(
            "{label:<16} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            r.entity_raw.mrr, r.entity_raw.h1, r.entity_raw.h3, r.entity_raw.h10
        ));
    }
    rep.blank();

    rep.line("Figure 7 — relation forecasting:");
    rep.line(&format!("{:<16} {:>8} {:>8} {:>8} {:>8}", "variant", "MRR", "H@1", "H@3", "H@10"));
    for (label, variant) in variants {
        let r = run_experiment(profile, variant, &settings);
        rep.line(&format!(
            "{label:<16} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            r.relation_raw.mrr, r.relation_raw.h1, r.relation_raw.h3, r.relation_raw.h10
        ));
    }
    rep.finish("fig6_7");
}
