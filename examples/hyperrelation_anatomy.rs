//! Anatomy of the twin hyperrelation subgraph (Algorithm 1) and the
//! "message islands" problem it solves — a didactic walk-through of the
//! paper's Figure 1 example, plus a relation-forecasting demo.
//!
//! ```sh
//! cargo run --release --example hyperrelation_anatomy
//! ```

use retia::{Retia, RetiaConfig, Split, TkgContext, Trainer};
use retia_data::SyntheticConfig;
use retia_graph::{HyperRel, HyperSnapshot, Quad, Snapshot};

fn main() {
    // ---- Part 1: the Figure 1 example, by hand -------------------------
    // Entities: s=0, o1=1, o2=2, o3=3, o4=4. Relations: r1=0, r2=1, r1'=2,
    // r2'=3, r4'=4. Facts at one timestamp:
    //   (s, r1, o1), (s, r1, o3), (s, r1, o4), (s, r2, o2),
    //   (o3, r1', 5): r1 and r1' meet at o3 — the bridge entity of the paper.
    let facts = vec![
        Quad::new(0, 0, 1, 0),
        Quad::new(0, 0, 3, 0),
        Quad::new(0, 0, 4, 0),
        Quad::new(0, 1, 2, 0),
        Quad::new(3, 2, 5, 0),
    ];
    let snap = Snapshot::from_quads(&facts, 6, 5);
    let hyper = HyperSnapshot::from_snapshot(&snap);

    println!(
        "original subgraph: {} facts -> {} edges (inverses added)",
        facts.len(),
        snap.num_edges()
    );
    println!("twin hyperrelation subgraph: {} hyperedges\n", hyper.num_edges());

    // In an entity-centric GCN, messages from r1 stop at o3 ("message
    // islands"); in the hypergraph r1 and r1' are directly adjacent:
    let os = HyperRel::ObjectSubject.id();
    println!(
        "o-s hyperedge r1 -> r1' present? {}  (object of r1 is the subject of r1')",
        hyper.has_edge(os, 0, 2)
    );
    let ss = HyperRel::SubjectSubject.id();
    println!(
        "s-s hyperedge r1 <-> r2 present? {} / {}  (shared subject s)",
        hyper.has_edge(ss, 0, 1),
        hyper.has_edge(ss, 1, 0)
    );
    println!("\nhyperedges by type:");
    for hr in HyperRel::ALL {
        let count = hyper.edges().filter(|&(t, _, _)| t == hr.id()).count();
        println!("  {:?}: {} edges", hr, count);
    }

    // ---- Part 2: does relation aggregation pay off? --------------------
    // Train RETIA with and without the RAM on a chain-heavy dataset and
    // compare *relation forecasting*, the task the RAM exists for.
    let mut dcfg = SyntheticConfig::tiny(77);
    dcfg.chain_prob = 0.8; // strong relation co-occurrence structure
    dcfg.target_facts = 1200;
    let ds = dcfg.generate();
    let ctx = TkgContext::new(&ds);

    let base = RetiaConfig {
        dim: 16,
        channels: 8,
        k: 3,
        epochs: 5,
        patience: 0,
        online: false,
        ..Default::default()
    };
    println!("\ntraining full RETIA and the no-RAM ablation on a chain-heavy TKG...");

    let mut full = Trainer::new(Retia::new(&base, &ds), base.clone());
    full.fit(&ctx);
    let full_rep = full.evaluate(&ctx, Split::Test);

    let ablated_cfg = RetiaConfig { relation_mode: retia::RelationMode::None, ..base };
    let mut ablated = Trainer::new(Retia::new(&ablated_cfg, &ds), ablated_cfg);
    ablated.fit(&ctx);
    let ablated_rep = ablated.evaluate(&ctx, Split::Test);

    println!(
        "relation forecasting MRR: full {:.2} vs wo. RAM {:.2}",
        full_rep.relation_raw.mrr() * 100.0,
        ablated_rep.relation_raw.mrr() * 100.0
    );
    println!(
        "entity   forecasting MRR: full {:.2} vs wo. RAM {:.2}",
        full_rep.entity_raw.mrr() * 100.0,
        ablated_rep.entity_raw.mrr() * 100.0
    );
    println!("\n(the gap on the relation task is the paper's Table VI story)");
}
