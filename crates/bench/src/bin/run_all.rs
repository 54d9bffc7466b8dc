//! Populates the experiment cache for every table and figure. Safe to
//! re-run: cached experiments are skipped. Ordered so the headline rows
//! (Tables III/IV/VII) exist first.

use retia_bench::{run_experiment, Settings, Variant};
use retia_data::DatasetProfile;

fn main() {
    let settings = Settings::from_env();
    let all = DatasetProfile::ALL;

    // Headline models (Tables III, IV, VII, VIII; Figure 8 online columns).
    for &p in &all {
        for v in [Variant::Retia, Variant::Regcn, Variant::Cen, Variant::Tirgn] {
            run_experiment(p, v, &settings);
        }
    }

    // Table VI ablations + Figure 8 offline counterpart + RGCRN (Table VII).
    for &p in &all {
        for v in [Variant::RetiaNoEam, Variant::RetiaRmNone, Variant::RetiaOffline, Variant::Rgcrn]
        {
            run_experiment(p, v, &settings);
        }
    }

    // Table IX / Figures 3-5: TIM + hyperrelation ablations on YAGO, ICEWS14.
    for p in [DatasetProfile::Yago, DatasetProfile::Icews14] {
        for v in [Variant::RetiaNoTim, Variant::RetiaHrmInit, Variant::RetiaHrmHmp] {
            run_experiment(p, v, &settings);
        }
    }

    // Figures 6-7: relation-modeling depth on ICEWS18 ("w. MP+LSTM" is CEN,
    // run with the headline models).
    run_experiment(DatasetProfile::Icews18, Variant::RetiaRmMp, &settings);

    // Static / interpolation / copy baselines (cheap; fill remaining rows).
    for &p in &all {
        for v in [
            Variant::CyGNet,
            Variant::DistMult,
            Variant::ComplEx,
            Variant::ConvE,
            Variant::ConvTransE,
            Variant::RotatE,
            Variant::StaticRgcn,
            Variant::TTransE,
            Variant::TaDistMult,
            Variant::Hyte,
        ] {
            run_experiment(p, v, &settings);
        }
    }

    // RE-NET-lite last: recurrent, so the most expensive of the tail.
    for &p in &all {
        run_experiment(p, Variant::Renet, &settings);
    }

    eprintln!("[retia-bench] cache populated.");
}
