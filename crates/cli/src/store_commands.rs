//! Store subcommands: `ingest`, `compact`, `query`, `path`, `communities`,
//! `export`.

use std::path::PathBuf;

use retia_json::Value;
use retia_store::{
    communities_at, community_evolution, filter_facts, temporal_pagerank, time_respecting_path,
    top_entities, ExportFormat, FactFilter, PageRankOptions, PathQuery, Store,
};

use crate::args::Args;

pub(crate) fn open_store(args: &Args) -> Result<Store, String> {
    let dir = PathBuf::from(args.require("store")?);
    Store::open(&dir).map_err(|e| e.to_string())
}

/// `retia ingest --store DIR (--facts FILE.tsv | --from-data DIR) [--append]
/// [--name NAME] [--granularity day|year] [--compact]`.
pub fn ingest(raw: &[String]) -> Result<(), String> {
    let own = ["store", "facts", "from-data", "name", "granularity"];
    let args = Args::parse(raw, &["append", "compact"], &[&own])?;
    let dir = PathBuf::from(args.require("store")?);
    // `--from-data` is loaded up front so a new store can inherit the
    // dataset's name and granularity unless overridden.
    let ds = match (args.get("facts"), args.get("from-data")) {
        (Some(_), None) => None,
        (None, Some(data)) => {
            Some(retia_data::load_dataset(&PathBuf::from(data)).map_err(|e| e.to_string())?)
        }
        _ => return Err("ingest needs exactly one of --facts FILE.tsv or --from-data DIR".into()),
    };
    let granularity = match args.get("granularity") {
        Some(token) => retia_store::manifest::parse_granularity(token)
            .ok_or_else(|| format!("unknown --granularity `{token}` (day|year)"))?,
        None => ds.as_ref().map_or(retia_data::Granularity::Day, |d| d.granularity),
    };
    let name = match args.get("name") {
        Some(n) => n.to_string(),
        None => ds.as_ref().map_or_else(|| "store".to_string(), |d| d.name.clone()),
    };
    let mut store = if args.flag("append") {
        Store::open_or_create(&dir, &name, granularity).map_err(|e| e.to_string())?
    } else {
        Store::create(&dir, &name, granularity).map_err(|e| e.to_string())?
    };

    let outcome = match &ds {
        None => {
            let path = args.require("facts")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let rows = retia_store::parse_named_tsv(&text).map_err(|e| format!("{path}: {e}"))?;
            store.append_named(&rows).map_err(|e| e.to_string())?
        }
        Some(ds) => store.append_dataset(ds).map_err(|e| e.to_string())?,
    };
    let stats = store.stats();
    println!(
        "appended {} fact(s) ({} new entities, {} new relations) to {}",
        outcome.appended,
        outcome.new_entities,
        outcome.new_relations,
        dir.display()
    );
    println!(
        "store now: {} facts over {} timestamps, {} entities, {} relations, \
         {} segment(s) + {} log record(s)",
        stats.facts,
        stats.timestamps,
        stats.entities,
        stats.relations,
        stats.segments,
        stats.log_records
    );
    if args.flag("compact") {
        let out = store.compact().map_err(|e| e.to_string())?;
        println!(
            "compacted: sealed {} fact(s) into {} in {:.1}ms",
            out.sealed_facts,
            out.segment.unwrap_or_else(|| "(nothing)".into()),
            out.millis
        );
    }
    Ok(())
}

/// `retia compact --store DIR`.
pub fn compact(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[], &[&["store"]])?;
    let mut store = open_store(&args)?;
    let out = store.compact().map_err(|e| e.to_string())?;
    match out.segment {
        Some(file) => println!(
            "sealed {} fact(s) into {file} in {:.1}ms ({} segment(s) total)",
            out.sealed_facts,
            out.millis,
            store.stats().segments
        ),
        None => println!("log is empty; nothing to compact"),
    }
    Ok(())
}

fn resolve_entity(store: &Store, token: &str, what: &str) -> Result<u32, String> {
    store.resolve_entity(token).ok_or_else(|| {
        format!("{what} `{token}` is neither a known entity name nor an id in range")
    })
}

fn entity_label(store: &Store, id: u32) -> String {
    store.entity_name(id).map(String::from).unwrap_or_else(|| format!("e{id}"))
}

fn relation_label(store: &Store, id: u32) -> String {
    store.relation_name(id).map(String::from).unwrap_or_else(|| format!("r{id}"))
}

fn fact_json(store: &Store, q: &retia_graph::Quad) -> Value {
    let mut row = Value::object();
    row.insert("s", Value::Number(f64::from(q.s)));
    row.insert("r", Value::Number(f64::from(q.r)));
    row.insert("o", Value::Number(f64::from(q.o)));
    row.insert("t", Value::Number(f64::from(q.t)));
    row.insert("subject", Value::String(entity_label(store, q.s)));
    row.insert("relation", Value::String(relation_label(store, q.r)));
    row.insert("object", Value::String(entity_label(store, q.o)));
    row
}

/// `retia query --store DIR [--subject X] [--relation X] [--object X]
/// [--since T] [--until T] [--limit N] [--json]`.
pub fn query(raw: &[String]) -> Result<(), String> {
    let own = ["store", "subject", "relation", "object", "since", "until", "limit"];
    let args = Args::parse(raw, &["json"], &[&own])?;
    let store = open_store(&args)?;
    let filter = FactFilter {
        s: args.get("subject").map(|v| resolve_entity(&store, v, "--subject")).transpose()?,
        o: args.get("object").map(|v| resolve_entity(&store, v, "--object")).transpose()?,
        r: args
            .get("relation")
            .map(|v| {
                store.resolve_relation(v).ok_or_else(|| {
                    format!("--relation `{v}` is neither a known relation name nor an id in range")
                })
            })
            .transpose()?,
        t_min: args
            .get("since")
            .map(str::parse)
            .transpose()
            .map_err(|e| format!("--since: {e}"))?,
        t_max: args
            .get("until")
            .map(str::parse)
            .transpose()
            .map_err(|e| format!("--until: {e}"))?,
    };
    let limit: usize = args.get_or("limit", 50usize)?;
    let facts = filter_facts(store.groups(), &filter, limit);
    if args.flag("json") {
        let mut doc = Value::object();
        doc.insert("facts", Value::Array(facts.iter().map(|q| fact_json(&store, q)).collect()));
        println!("{}", doc.to_string_pretty());
        return Ok(());
    }
    for q in &facts {
        println!(
            "t={:<6} {}  --{}-->  {}",
            q.t,
            entity_label(&store, q.s),
            relation_label(&store, q.r),
            entity_label(&store, q.o)
        );
    }
    println!(
        "{} fact(s){}",
        facts.len(),
        if limit != 0 && facts.len() == limit { " (limit reached; raise --limit)" } else { "" }
    );
    Ok(())
}

/// `retia path --store DIR --from X --to X [--since T] [--max-hops N]
/// [--json]`.
pub fn path(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["json"], &[&["store", "from", "to", "since", "max-hops"]])?;
    let store = open_store(&args)?;
    let q = PathQuery {
        from: resolve_entity(&store, args.require("from")?, "--from")?,
        to: resolve_entity(&store, args.require("to")?, "--to")?,
        start_t: args.get_or("since", 0u32)?,
        max_hops: args.get_or("max-hops", 8usize)?,
    };
    let Some(hops) = time_respecting_path(store.groups(), &q) else {
        return Err(format!(
            "no time-respecting path from `{}` to `{}` within {} hops",
            entity_label(&store, q.from),
            entity_label(&store, q.to),
            q.max_hops
        ));
    };
    if args.flag("json") {
        let mut doc = Value::object();
        doc.insert("hops", Value::Array(hops.iter().map(|h| fact_json(&store, h)).collect()));
        doc.insert(
            "arrival_t",
            match hops.last() {
                Some(h) => Value::Number(f64::from(h.t)),
                None => Value::Null,
            },
        );
        println!("{}", doc.to_string_pretty());
        return Ok(());
    }
    if hops.is_empty() {
        println!("{} is the start entity; empty path", entity_label(&store, q.from));
        return Ok(());
    }
    println!(
        "time-respecting path ({} hop(s), arrives t={}):",
        hops.len(),
        hops.last().map(|h| h.t).unwrap_or(0)
    );
    for h in &hops {
        println!(
            "  t={:<6} {}  --{}-->  {}",
            h.t,
            entity_label(&store, h.s),
            relation_label(&store, h.r),
            entity_label(&store, h.o)
        );
    }
    Ok(())
}

/// `retia communities --store DIR [--at T] [--json]`.
pub fn communities(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["json"], &[&["store", "at"]])?;
    let store = open_store(&args)?;
    let snaps: Vec<_> = store
        .groups()
        .iter()
        .map(|(t, facts)| communities_at(*t, facts, store.num_entities()))
        .collect();
    if let Some(at) = args.get("at") {
        let t: u32 = at.parse().map_err(|e| format!("--at: {e}"))?;
        let snap =
            snaps.iter().find(|c| c.t == t).ok_or_else(|| format!("no facts at timestamp {t}"))?;
        if args.flag("json") {
            let mut doc = Value::object();
            doc.insert("t", Value::Number(f64::from(t)));
            doc.insert(
                "communities",
                Value::Array(
                    snap.members()
                        .iter()
                        .map(|members| {
                            Value::Array(
                                members
                                    .iter()
                                    .map(|&e| Value::String(entity_label(&store, e)))
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            );
            println!("{}", doc.to_string_pretty());
            return Ok(());
        }
        println!("t={t}: {} communities", snap.count);
        for (label, members) in snap.members().iter().enumerate() {
            let names: Vec<String> = members.iter().map(|&e| entity_label(&store, e)).collect();
            println!("  #{label} ({} members): {}", members.len(), names.join(", "));
        }
        return Ok(());
    }
    let evolution = community_evolution(&snaps);
    if args.flag("json") {
        let mut doc = Value::object();
        doc.insert(
            "snapshots",
            Value::Array(
                snaps
                    .iter()
                    .map(|c| {
                        let mut row = Value::object();
                        row.insert("t", Value::Number(f64::from(c.t)));
                        row.insert("communities", Value::Number(c.count as f64));
                        row
                    })
                    .collect(),
            ),
        );
        doc.insert(
            "evolution",
            Value::Array(
                evolution
                    .iter()
                    .map(|s| {
                        let mut row = Value::object();
                        row.insert("t_from", Value::Number(f64::from(s.t_from)));
                        row.insert("t_to", Value::Number(f64::from(s.t_to)));
                        row.insert("continued", Value::Number(s.continued as f64));
                        row.insert("born", Value::Number(s.born as f64));
                        row.insert("died", Value::Number(s.died as f64));
                        row
                    })
                    .collect(),
            ),
        );
        println!("{}", doc.to_string_pretty());
        return Ok(());
    }
    println!("{:>8}  {:>11}  {:>9}  {:>4}  {:>4}", "t", "communities", "continued", "born", "died");
    for (i, c) in snaps.iter().enumerate() {
        match i.checked_sub(1).and_then(|j| evolution.get(j)) {
            Some(step) => println!(
                "{:>8}  {:>11}  {:>9}  {:>4}  {:>4}",
                c.t, c.count, step.continued, step.born, step.died
            ),
            None => println!("{:>8}  {:>11}  {:>9}  {:>4}  {:>4}", c.t, c.count, "-", "-", "-"),
        }
    }
    Ok(())
}

/// `retia export --store DIR --format json|csv|graphml|cypher [--out FILE]`.
pub fn export(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[], &[&["store", "format", "out"]])?;
    let store = open_store(&args)?;
    let token = args.require("format")?;
    let format = ExportFormat::parse(token)
        .ok_or_else(|| format!("unknown --format `{token}` (json|csv|graphml|cypher)"))?;
    let text = retia_store::export(&store.doc(), format);
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
            println!(
                "wrote {} ({} entities, {} relations, {} facts)",
                path,
                store.num_entities(),
                store.num_relations(),
                store.stats().facts
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// The `--store` half of `retia stats`: store summary + deterministic
/// analytics (temporal PageRank top-10, community counts).
pub fn store_stats(args: &Args) -> Result<(), String> {
    let store = open_store(args)?;
    let s = store.stats();
    println!("store        : {}", store.dir().display());
    println!("graph        : {}", s.name);
    println!("granularity  : {}", retia_store::manifest::granularity_token(s.granularity));
    println!("entities     : {}", s.entities);
    println!("relations    : {}", s.relations);
    println!("facts        : {} over {} timestamps", s.facts, s.timestamps);
    if let (Some(first), Some(last)) = (s.first_t, s.last_t) {
        println!("time range   : [{first}, {last}]");
    }
    println!("segments     : {} ({} facts sealed)", s.segments, s.segment_facts);
    println!(
        "log          : {} record(s), {} fact(s), {} bytes",
        s.log_records, s.log_facts, s.log_bytes
    );
    if s.facts == 0 {
        return Ok(());
    }
    let scores = temporal_pagerank(store.groups(), s.entities, &PageRankOptions::default());
    println!("temporal PageRank (damping 0.85, recency decay 0.8), top 10:");
    for (rank, (e, score)) in top_entities(&scores, 10).iter().enumerate() {
        println!("  #{:<3} {:<24} {:.5}", rank + 1, entity_label(&store, *e), score);
    }
    let snaps: Vec<_> =
        store.groups().iter().map(|(t, facts)| communities_at(*t, facts, s.entities)).collect();
    let evolution = community_evolution(&snaps);
    let mean = snaps.iter().map(|c| c.count).sum::<usize>() as f64 / snaps.len().max(1) as f64;
    println!(
        "communities  : {:.1} mean per snapshot; across {} step(s): {} continued, {} born, {} died",
        mean,
        evolution.len(),
        evolution.iter().map(|e| e.continued).sum::<usize>(),
        evolution.iter().map(|e| e.born).sum::<usize>(),
        evolution.iter().map(|e| e.died).sum::<usize>(),
    );
    Ok(())
}
