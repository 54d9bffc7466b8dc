//! The store proper: directory lifecycle, append, recovery, compaction.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use retia_data::{Granularity, TkgDataset, Vocab};
use retia_graph::{check_facts, group_by_timestamp, merge_groups, Quad, Snapshot};

use crate::error::{corrupt, StoreError};
use crate::export::GraphDoc;
use crate::log::{encode_record, scan, LogRecord, LogScan};
use crate::manifest::{
    segment_file_name, stale_log_files, SegmentEntry, StoreManifest, VOCAB_FILE,
};
use crate::segment::{decode_segment, decode_vocabs, encode_segment, encode_vocabs};

/// A fact whose subject/relation/object are names, before vocabulary
/// resolution (the `retia ingest` TSV row).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NamedFact {
    /// Subject name.
    pub s: String,
    /// Relation name.
    pub r: String,
    /// Object name.
    pub o: String,
    /// Timestamp index.
    pub t: u32,
}

/// What an append did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Facts durably appended.
    pub appended: usize,
    /// Entity names first seen in this append.
    pub new_entities: usize,
    /// Relation names first seen in this append.
    pub new_relations: usize,
}

/// What a compaction did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CompactOutcome {
    /// Facts sealed out of the log into the new segment (0 = no-op).
    pub sealed_facts: usize,
    /// File name of the segment written, when one was.
    pub segment: Option<String>,
    /// Wall-clock milliseconds the compaction took.
    pub millis: f64,
}

/// Summary statistics of an open store.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreStats {
    /// Graph name.
    pub name: String,
    /// Timestamp granularity.
    pub granularity: Granularity,
    /// Entities in the vocabulary.
    pub entities: usize,
    /// Relations in the vocabulary.
    pub relations: usize,
    /// Total facts (segments + log).
    pub facts: usize,
    /// Distinct timestamps.
    pub timestamps: usize,
    /// Smallest timestamp, when any facts exist.
    pub first_t: Option<u32>,
    /// Largest timestamp, when any facts exist.
    pub last_t: Option<u32>,
    /// Sealed segments.
    pub segments: usize,
    /// Facts sealed in segments.
    pub segment_facts: u64,
    /// Valid records in the current log generation.
    pub log_records: usize,
    /// Facts in the current log generation.
    pub log_facts: usize,
    /// Bytes in the current log generation.
    pub log_bytes: u64,
}

/// A durable temporal-KG store: segments + log + vocabulary, fully loaded.
///
/// Single-writer: one process appends/compacts at a time (the CLI and the
/// serve engine never share a live store directory; `retia compact` is an
/// offline operation).
pub struct Store {
    dir: PathBuf,
    manifest: StoreManifest,
    entities: Vocab,
    relations: Vocab,
    /// All facts, grouped by ascending timestamp (same-`t` appends merged).
    groups: Vec<(u32, Vec<Quad>)>,
    /// Facts currently in the log (append order), pending compaction.
    log_quads: Vec<Quad>,
    log_records: usize,
    log_bytes: u64,
    segment_facts: u64,
    /// Open append handle for the current log generation (lazy).
    log_handle: Option<File>,
}

impl Store {
    /// Creates an empty store at `dir` (created if missing). Fails if a
    /// store already exists there.
    pub fn create(dir: &Path, name: &str, granularity: Granularity) -> Result<Store, StoreError> {
        if dir.join(crate::manifest::MANIFEST_FILE).exists() {
            return Err(StoreError::Invalid(format!(
                "a store already exists at {} (use append instead)",
                dir.display()
            )));
        }
        std::fs::create_dir_all(dir)?;
        let manifest = StoreManifest::new(name, granularity);
        retia_tensor::serialize::atomic_write(&dir.join(VOCAB_FILE), &encode_vocabs(&[], &[]))
            .map_err(|e| corrupt(VOCAB_FILE, format!("atomic write failed: {e}")))?;
        manifest.save(dir)?;
        let store = Store {
            dir: dir.to_path_buf(),
            manifest,
            entities: Vocab::new(),
            relations: Vocab::new(),
            groups: Vec::new(),
            log_quads: Vec::new(),
            log_records: 0,
            log_bytes: 0,
            segment_facts: 0,
            log_handle: None,
        };
        store.publish_gauges();
        Ok(store)
    }

    /// Opens an existing store, recovering the log's valid prefix. A torn
    /// or bit-flipped log tail is cleanly truncated in place at the last
    /// valid record; segment or manifest corruption is a typed error.
    pub fn open(dir: &Path) -> Result<Store, StoreError> {
        let manifest = StoreManifest::load(dir)?;
        let vocab_bytes = std::fs::read(dir.join(VOCAB_FILE))
            .map_err(|e| corrupt(VOCAB_FILE, format!("unreadable: {e}")))?;
        let (ent_names, rel_names) = decode_vocabs(VOCAB_FILE, &vocab_bytes)?;
        let mut entities = Vocab::new();
        for name in &ent_names {
            entities.intern(name);
        }
        let mut relations = Vocab::new();
        for name in &rel_names {
            relations.intern(name);
        }
        if entities.len() != ent_names.len() || relations.len() != rel_names.len() {
            return Err(corrupt(VOCAB_FILE, "duplicate names in vocabulary snapshot"));
        }

        let mut groups: Vec<(u32, Vec<Quad>)> = Vec::new();
        let mut segment_facts = 0u64;
        for entry in &manifest.segments {
            let bytes = std::fs::read(dir.join(&entry.file))
                .map_err(|e| corrupt(&entry.file, format!("unreadable: {e}")))?;
            let seg = decode_segment(&entry.file, &bytes)?;
            if seg.facts.len() as u64 != entry.facts
                || (seg.first_t, seg.last_t) != (entry.first_t, entry.last_t)
            {
                return Err(corrupt(&entry.file, "segment disagrees with its manifest entry"));
            }
            let end = groups.last().map(|(t, _)| *t);
            check_facts(&seg.facts, end, entities.len(), relations.len())
                .map_err(|e| corrupt(&entry.file, e.to_string()))?;
            segment_facts += entry.facts;
            merge_groups(&mut groups, &seg.facts);
        }

        let scan = recover_log(&dir.join(manifest.log_file()))?;
        let mut log_quads = Vec::new();
        for rec in &scan.records {
            for name in &rec.new_entities {
                entities.intern(name);
            }
            for name in &rec.new_relations {
                relations.intern(name);
            }
            let end = groups.last().map(|(t, _)| *t);
            check_facts(&rec.facts, end, entities.len(), relations.len())
                .map_err(|e| corrupt(&manifest.log_file(), e.to_string()))?;
            merge_groups(&mut groups, &rec.facts);
            log_quads.extend(rec.facts.iter().copied());
        }

        // Sweep log generations a crash orphaned between the manifest flip
        // and the old log's deletion; their facts are already sealed.
        for stale in stale_log_files(dir, &manifest.log_file()) {
            let _ = std::fs::remove_file(stale);
        }

        let store = Store {
            dir: dir.to_path_buf(),
            manifest,
            entities,
            relations,
            groups,
            log_records: scan.records.len(),
            log_bytes: scan.valid_len as u64,
            log_quads,
            segment_facts,
            log_handle: None,
        };
        store.publish_gauges();
        Ok(store)
    }

    /// Opens `dir` if a store exists there, otherwise creates one.
    pub fn open_or_create(
        dir: &Path,
        name: &str,
        granularity: Granularity,
    ) -> Result<Store, StoreError> {
        if dir.join(crate::manifest::MANIFEST_FILE).exists() {
            Store::open(dir)
        } else {
            Store::create(dir, name, granularity)
        }
    }

    // -- accessors ----------------------------------------------------------

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Graph name.
    pub fn name(&self) -> &str {
        &self.manifest.name
    }

    /// Timestamp granularity.
    pub fn granularity(&self) -> Granularity {
        self.manifest.granularity
    }

    /// Entities in the vocabulary.
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// Relations in the vocabulary.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Entity name of `id`, if in range.
    pub fn entity_name(&self, id: u32) -> Option<&str> {
        self.entities.name(id)
    }

    /// Relation name of `id`, if in range.
    pub fn relation_name(&self, id: u32) -> Option<&str> {
        self.relations.name(id)
    }

    /// Resolves an entity token: a vocabulary name first, else a numeric id
    /// in range.
    pub fn resolve_entity(&self, token: &str) -> Option<u32> {
        self.entities
            .id(token)
            .or_else(|| token.parse().ok().filter(|&i| (i as usize) < self.entities.len()))
    }

    /// Resolves a relation token: a vocabulary name first, else a numeric
    /// id in range.
    pub fn resolve_relation(&self, token: &str) -> Option<u32> {
        self.relations
            .id(token)
            .or_else(|| token.parse().ok().filter(|&i| (i as usize) < self.relations.len()))
    }

    /// All facts grouped by ascending timestamp.
    pub fn groups(&self) -> &[(u32, Vec<Quad>)] {
        &self.groups
    }

    /// All facts flattened in timestamp order.
    pub fn all_facts(&self) -> Vec<Quad> {
        self.groups.iter().flat_map(|(_, g)| g.iter().copied()).collect()
    }

    /// Largest stored timestamp.
    pub fn end_t(&self) -> Option<u32> {
        self.groups.last().map(|(t, _)| *t)
    }

    /// The last `k` snapshots — the boot window the trainer and the server
    /// share. Deterministic: the same store bytes always produce the same
    /// snapshots.
    pub fn window(&self, k: usize) -> Vec<Snapshot> {
        let skip = self.groups.len().saturating_sub(k.max(1));
        // Groups are never empty, so each snapshot takes its group's `t`.
        let (n, m) = (self.entities.len(), self.relations.len());
        self.groups[skip..].iter().map(|(_, facts)| Snapshot::from_quads(facts, n, m)).collect()
    }

    /// The store's facts as a standard 80/10/10 temporally split dataset
    /// (what `retia train --store` consumes).
    pub fn dataset(&self) -> TkgDataset {
        TkgDataset::from_quads(
            &self.manifest.name,
            self.entities.len(),
            self.relations.len(),
            self.manifest.granularity,
            self.all_facts(),
        )
    }

    /// A neutral graph document for the exporters.
    pub fn doc(&self) -> GraphDoc {
        GraphDoc {
            name: self.manifest.name.clone(),
            granularity: self.manifest.granularity,
            entities: self.entities.iter().map(|(_, n)| n.to_string()).collect(),
            relations: self.relations.iter().map(|(_, n)| n.to_string()).collect(),
            facts: self.all_facts(),
        }
    }

    /// Summary statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            name: self.manifest.name.clone(),
            granularity: self.manifest.granularity,
            entities: self.entities.len(),
            relations: self.relations.len(),
            facts: self.groups.iter().map(|(_, g)| g.len()).sum(),
            timestamps: self.groups.len(),
            first_t: self.groups.first().map(|(t, _)| *t),
            last_t: self.end_t(),
            segments: self.manifest.segments.len(),
            segment_facts: self.segment_facts,
            log_records: self.log_records,
            log_facts: self.log_quads.len(),
            log_bytes: self.log_bytes,
        }
    }

    // -- append -------------------------------------------------------------

    /// Durably appends id-space facts. Ids must be inside the vocabulary
    /// and timestamps must not precede the store end (same-`t` facts merge
    /// into the newest group). The facts are on disk — CRC-tagged and
    /// fsynced — before this returns `Ok`.
    pub fn append_quads(&mut self, facts: &[Quad]) -> Result<AppendOutcome, StoreError> {
        check_facts(facts, self.end_t(), self.entities.len(), self.relations.len())
            .map_err(|e| StoreError::Invalid(e.to_string()))?;
        let ordered: Vec<Quad> =
            group_by_timestamp(facts).into_iter().flat_map(|(_, g)| g).collect();
        self.commit(LogRecord { facts: ordered, ..Default::default() })?;
        Ok(AppendOutcome { appended: facts.len(), ..Default::default() })
    }

    /// Durably appends named facts, interning unseen entity/relation names
    /// in first-appearance (row) order — ids already assigned never move.
    /// The new names travel in the same log record as the facts that use
    /// them, so both are durable together.
    pub fn append_named(&mut self, rows: &[NamedFact]) -> Result<AppendOutcome, StoreError> {
        // Dry-run interning on clones: a failed validation must not leave
        // half the batch's names in the vocabulary.
        let mut entities = self.entities.clone();
        let mut relations = self.relations.clone();
        let (e_before, r_before) = (entities.len(), relations.len());
        let quads: Vec<Quad> = rows
            .iter()
            .map(|row| {
                Quad::new(
                    entities.intern(&row.s),
                    relations.intern(&row.r),
                    entities.intern(&row.o),
                    row.t,
                )
            })
            .collect();
        check_facts(&quads, self.end_t(), entities.len(), relations.len())
            .map_err(|e| StoreError::Invalid(e.to_string()))?;
        let new_entities: Vec<String> = (e_before..entities.len())
            .filter_map(|i| entities.name(i as u32))
            .map(String::from)
            .collect();
        let new_relations: Vec<String> = (r_before..relations.len())
            .filter_map(|i| relations.name(i as u32))
            .map(String::from)
            .collect();
        let outcome = AppendOutcome {
            appended: rows.len(),
            new_entities: new_entities.len(),
            new_relations: new_relations.len(),
        };
        let ordered: Vec<Quad> =
            group_by_timestamp(&quads).into_iter().flat_map(|(_, g)| g).collect();
        self.entities = entities;
        self.relations = relations;
        self.commit(LogRecord { new_entities, new_relations, facts: ordered })?;
        Ok(outcome)
    }

    /// Durably appends every fact of `ds` under synthetic `e{i}`/`r{i}`
    /// names, interning the dataset's whole id space first so store ids
    /// equal dataset ids (what `retia ingest --from-data` writes).
    pub fn append_dataset(&mut self, ds: &TkgDataset) -> Result<AppendOutcome, StoreError> {
        let ents: Vec<String> = (0..ds.num_entities).map(|i| format!("e{i}")).collect();
        let rels: Vec<String> = (0..ds.num_relations).map(|i| format!("r{i}")).collect();
        self.ensure_names(&ents, &rels)?;
        self.append_quads(&ds.all_quads().copied().collect::<Vec<_>>())
    }

    /// Durably interns any of `entities`/`relations` not yet in the
    /// vocabulary, in the given order, as one facts-free log record.
    /// Seeding the full id space of a dataset this way makes subsequently
    /// appended id-space facts line up with the dataset's ids exactly.
    pub fn ensure_names(
        &mut self,
        entities: &[String],
        relations: &[String],
    ) -> Result<AppendOutcome, StoreError> {
        let mut new_entities: Vec<String> = Vec::new();
        let mut new_relations: Vec<String> = Vec::new();
        {
            let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
            for name in entities {
                if self.entities.id(name).is_none() && seen.insert(name) {
                    new_entities.push(name.clone());
                }
            }
            seen.clear();
            for name in relations {
                if self.relations.id(name).is_none() && seen.insert(name) {
                    new_relations.push(name.clone());
                }
            }
        }
        let outcome = AppendOutcome {
            new_entities: new_entities.len(),
            new_relations: new_relations.len(),
            ..Default::default()
        };
        for name in &new_entities {
            self.entities.intern(name);
        }
        for name in &new_relations {
            self.relations.intern(name);
        }
        self.commit(LogRecord { new_entities, new_relations, facts: Vec::new() })?;
        Ok(outcome)
    }

    /// Writes one record durably and folds it into the in-memory view.
    fn commit(&mut self, rec: LogRecord) -> Result<(), StoreError> {
        if rec.facts.is_empty() && rec.new_entities.is_empty() && rec.new_relations.is_empty() {
            return Ok(());
        }
        let bytes = encode_record(&rec);
        if self.log_handle.is_none() {
            let path = self.dir.join(self.manifest.log_file());
            self.log_handle = Some(OpenOptions::new().create(true).append(true).open(path)?);
        }
        if let Some(file) = &mut self.log_handle {
            file.write_all(&bytes)?;
            file.sync_data()?;
        }
        merge_groups(&mut self.groups, &rec.facts);
        self.log_quads.extend(rec.facts.iter().copied());
        self.log_records += 1;
        self.log_bytes += bytes.len() as u64;
        retia_obs::metrics::inc("store.appends");
        retia_obs::metrics::inc_by("store.append_facts", rec.facts.len() as u64);
        self.publish_gauges();
        Ok(())
    }

    // -- compaction ---------------------------------------------------------

    /// Seals the current log generation into an immutable segment, snapshots
    /// the vocabulary, flips the manifest atomically, and deletes the sealed
    /// log. A `kill -9` at any byte offset leaves either the old generation
    /// (log intact) or the new one (facts in the segment) — never less.
    pub fn compact(&mut self) -> Result<CompactOutcome, StoreError> {
        if self.log_quads.is_empty() {
            return Ok(CompactOutcome::default());
        }
        let start = std::time::Instant::now();
        let sealed = self.log_quads.len();
        let seg_file = segment_file_name(self.manifest.segments.len());
        let first_t = self.log_quads.iter().map(|q| q.t).min().unwrap_or(0);
        let last_t = self.log_quads.iter().map(|q| q.t).max().unwrap_or(0);
        // Canonical segment order: timestamp-grouped, like the log records.
        let ordered: Vec<Quad> =
            group_by_timestamp(&self.log_quads).into_iter().flat_map(|(_, g)| g).collect();

        // 1. New immutable state under its final names (atomic writes); the
        //    manifest still points at the old log if we die here.
        retia_tensor::serialize::atomic_write(&self.dir.join(&seg_file), &encode_segment(&ordered))
            .map_err(|e| corrupt(&seg_file, format!("atomic write failed: {e}")))?;
        let ents: Vec<String> = self.entities.iter().map(|(_, n)| n.to_string()).collect();
        let rels: Vec<String> = self.relations.iter().map(|(_, n)| n.to_string()).collect();
        retia_tensor::serialize::atomic_write(
            &self.dir.join(VOCAB_FILE),
            &encode_vocabs(&ents, &rels),
        )
        .map_err(|e| corrupt(VOCAB_FILE, format!("atomic write failed: {e}")))?;

        // 2. Flip the manifest: new segment list, next log generation.
        let old_log = self.dir.join(self.manifest.log_file());
        let mut manifest = self.manifest.clone();
        manifest.segments.push(SegmentEntry {
            file: seg_file.clone(),
            facts: ordered.len() as u64,
            first_t,
            last_t,
        });
        manifest.log_generation += 1;
        manifest.save(&self.dir)?;
        self.manifest = manifest;

        // 3. The sealed log is no longer named by the manifest; delete it.
        //    (A crash before this line leaves an orphan the next open
        //    sweeps.)
        let _ = std::fs::remove_file(&old_log);
        self.log_handle = None;
        self.segment_facts += sealed as u64;
        self.log_quads.clear();
        self.log_records = 0;
        self.log_bytes = 0;

        let millis = start.elapsed().as_secs_f64() * 1e3;
        retia_obs::metrics::observe("store.compaction_ms", millis);
        self.publish_gauges();
        retia_obs::event!(
            retia_obs::Level::Info,
            "store.compacted",
            facts = sealed,
            segments = self.manifest.segments.len();
            format!(
                "sealed {sealed} fact(s) into {seg_file} ({} segment(s) total) in {millis:.1}ms",
                self.manifest.segments.len()
            )
        );
        Ok(CompactOutcome { sealed_facts: sealed, segment: Some(seg_file), millis })
    }

    fn publish_gauges(&self) {
        retia_obs::metrics::set_gauge("store.log_bytes", self.log_bytes as f64);
        retia_obs::metrics::set_gauge("store.log_records", self.log_records as f64);
        retia_obs::metrics::set_gauge("store.segments", self.manifest.segments.len() as f64);
        retia_obs::metrics::set_gauge(
            "store.facts",
            self.groups.iter().map(|(_, g)| g.len()).sum::<usize>() as f64,
        );
    }
}

/// A log-only append handle for the serve engine: opens the current log
/// generation (recovering its valid prefix first, exactly like
/// [`Store::open`]) without loading segments, and appends id-space fact
/// batches durably. The engine validates ids against the model before
/// appending, so no vocabulary is needed.
pub struct Appender {
    file: File,
    facts: u64,
}

impl Appender {
    /// Opens the store's current log for appending. The torn-tail recovery
    /// runs first so a crashed predecessor cannot poison the generation.
    pub fn open(dir: &Path) -> Result<Appender, StoreError> {
        let manifest = StoreManifest::load(dir)?;
        let path = dir.join(manifest.log_file());
        recover_log(&path)?;
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Appender { file, facts: 0 })
    }

    /// Durably appends one accepted fact batch (fsynced before return).
    pub fn append_quads(&mut self, facts: &[Quad]) -> Result<(), StoreError> {
        let ordered: Vec<Quad> =
            group_by_timestamp(facts).into_iter().flat_map(|(_, g)| g).collect();
        let bytes = encode_record(&LogRecord { facts: ordered, ..Default::default() });
        self.file.write_all(&bytes)?;
        self.file.sync_data()?;
        self.facts += facts.len() as u64;
        retia_obs::metrics::inc("store.appends");
        retia_obs::metrics::inc_by("store.append_facts", facts.len() as u64);
        Ok(())
    }

    /// Facts appended through this handle.
    pub fn appended_facts(&self) -> u64 {
        self.facts
    }
}

/// Reads the log at `path` (a missing file reads as empty) and cuts a torn
/// tail: the file is truncated to its valid prefix and synced, the cut is
/// counted in `store.log_truncations` and reported as a
/// `store.log_truncated` warning. Returns the valid prefix's records. Both
/// [`Store::open`] and [`Appender::open`] recover through here.
fn recover_log(path: &Path) -> Result<LogScan, StoreError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(StoreError::Io(e)),
    };
    let scan = scan(&bytes);
    if scan.corrupt_tail {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(scan.valid_len as u64)?;
        file.sync_data()?;
        let dropped = bytes.len() - scan.valid_len;
        retia_obs::metrics::inc("store.log_truncations");
        retia_obs::event!(
            retia_obs::Level::Warn,
            "store.log_truncated",
            valid_records = scan.records.len(),
            dropped_bytes = dropped;
            format!(
                "store log tail corrupt after {} valid record(s); truncated {} byte(s)",
                scan.records.len(),
                dropped
            )
        );
    }
    Ok(scan)
}

/// Parses the named-fact TSV (`s\tr\to\tt`, `#` comments and blank lines
/// skipped; names may contain spaces but not tabs).
pub fn parse_named_tsv(text: &str) -> Result<Vec<NamedFact>, StoreError> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end_matches('\r');
        if line.trim().is_empty() || line.trim_start().starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 4 {
            return Err(StoreError::Import(format!(
                "line {}: expected 4 tab-separated fields (s\\tr\\to\\tt), found {}",
                lineno + 1,
                fields.len()
            )));
        }
        let t: u32 = fields[3].trim().parse().map_err(|e| {
            StoreError::Import(format!("line {}: bad timestamp `{}`: {e}", lineno + 1, fields[3]))
        })?;
        out.push(NamedFact {
            s: fields[0].to_string(),
            r: fields[1].to_string(),
            o: fields[2].to_string(),
            t,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("retia-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn named(s: &str, r: &str, o: &str, t: u32) -> NamedFact {
        NamedFact { s: s.into(), r: r.into(), o: o.into(), t }
    }

    #[test]
    fn create_append_reopen_preserves_everything() {
        let dir = tmp("roundtrip");
        let mut store = Store::create(&dir, "toy", Granularity::Day).expect("create");
        let out = store
            .append_named(&[named("a", "likes", "b", 0), named("b", "likes", "c", 1)])
            .expect("append");
        assert_eq!(out.appended, 2);
        assert_eq!(out.new_entities, 3);
        assert_eq!(out.new_relations, 1);

        let store = Store::open(&dir).expect("reopen");
        assert_eq!(store.num_entities(), 3);
        assert_eq!(store.num_relations(), 1);
        assert_eq!(store.all_facts(), vec![Quad::new(0, 0, 1, 0), Quad::new(1, 0, 2, 1)]);
        assert_eq!(store.entity_name(0), Some("a"));
        assert_eq!(store.relation_name(0), Some("likes"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn vocab_ids_are_pinned_across_appends() {
        // Satellite regression: a second --append introducing unseen names
        // must extend the vocabulary in insertion order and never renumber
        // ids assigned by the first append — even across compaction and
        // reopen.
        let dir = tmp("vocab-pin");
        let mut store = Store::create(&dir, "toy", Granularity::Day).expect("create");
        store.append_named(&[named("alice", "knows", "bob", 0)]).expect("first append");
        let alice = store.resolve_entity("alice").expect("alice interned");
        let bob = store.resolve_entity("bob").expect("bob interned");
        let knows = store.resolve_relation("knows").expect("knows interned");
        assert_eq!((alice, bob, knows), (0, 1, 0));

        store.compact().expect("compact");
        let mut store = Store::open(&dir).expect("reopen after compact");
        // Second append: one old entity, two new names, a new relation.
        store
            .append_named(&[named("carol", "knows", "alice", 1), named("bob", "met", "dave", 1)])
            .expect("second append");
        assert_eq!(store.resolve_entity("alice"), Some(0), "alice renumbered");
        assert_eq!(store.resolve_entity("bob"), Some(1), "bob renumbered");
        assert_eq!(store.resolve_entity("carol"), Some(2), "carol not next id");
        assert_eq!(store.resolve_entity("dave"), Some(3), "dave not insertion order");
        assert_eq!(store.resolve_relation("knows"), Some(0));
        assert_eq!(store.resolve_relation("met"), Some(1));

        // And the assignment survives another reopen (log replay path).
        let store = Store::open(&dir).expect("reopen with live log");
        assert_eq!(store.resolve_entity("carol"), Some(2));
        assert_eq!(store.resolve_entity("dave"), Some(3));
        assert_eq!(
            store.all_facts(),
            vec![Quad::new(0, 0, 1, 0), Quad::new(1, 1, 3, 1), Quad::new(2, 0, 0, 1)],
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_leaves_vocab_untouched() {
        let dir = tmp("atomic-vocab");
        let mut store = Store::create(&dir, "toy", Granularity::Day).expect("create");
        store.append_named(&[named("a", "r", "b", 5)]).expect("seed");
        let err = store.append_named(&[named("new-name", "r", "a", 2)]);
        assert!(err.is_err(), "backward timestamp accepted");
        assert_eq!(store.resolve_entity("new-name"), None, "dry-run leaked an intern");
        assert_eq!(store.num_entities(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ensure_names_seeds_vocab_durably() {
        let dir = tmp("ensure");
        let mut store = Store::create(&dir, "toy", Granularity::Day).expect("create");
        let ents: Vec<String> = (0..4).map(|i| format!("e{i}")).collect();
        let rels: Vec<String> = (0..2).map(|i| format!("r{i}")).collect();
        let out = store.ensure_names(&ents, &rels).expect("seed");
        assert_eq!((out.new_entities, out.new_relations), (4, 2));
        store.append_quads(&[Quad::new(3, 1, 0, 0)]).expect("ids line up");
        let store = Store::open(&dir).expect("reopen");
        assert_eq!(store.resolve_entity("e3"), Some(3));
        assert_eq!(store.num_relations(), 2);
        let mut store = store;
        let again = store.ensure_names(&ents, &rels).expect("noop");
        assert_eq!((again.new_entities, again.new_relations), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forward_only_and_same_t_merge() {
        let dir = tmp("forward");
        let mut store = Store::create(&dir, "toy", Granularity::Day).expect("create");
        store.append_named(&[named("a", "r", "b", 3)]).expect("seed");
        assert!(store.append_quads(&[Quad::new(0, 0, 1, 2)]).is_err(), "backward accepted");
        store.append_quads(&[Quad::new(1, 0, 0, 3)]).expect("same-t merge");
        assert_eq!(store.groups().len(), 1, "same-t append created a new group");
        assert_eq!(store.groups()[0].1.len(), 2);
        store.append_quads(&[Quad::new(0, 0, 1, 7)]).expect("forward");
        assert_eq!(store.end_t(), Some(7));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_range_ids_are_rejected() {
        let dir = tmp("ranges");
        let mut store = Store::create(&dir, "toy", Granularity::Day).expect("create");
        store.append_named(&[named("a", "r", "b", 0)]).expect("seed");
        assert!(store.append_quads(&[Quad::new(9, 0, 0, 1)]).is_err());
        assert!(store.append_quads(&[Quad::new(0, 9, 0, 1)]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_seals_and_survives_reopen() {
        let dir = tmp("compact");
        let mut store = Store::create(&dir, "toy", Granularity::Day).expect("create");
        store.append_named(&[named("a", "r", "b", 0), named("b", "r", "a", 1)]).expect("append");
        let out = store.compact().expect("compact");
        assert_eq!(out.sealed_facts, 2);
        assert!(out.segment.is_some());
        // No-op when the log is empty.
        let noop = store.compact().expect("noop compact");
        assert_eq!(noop.sealed_facts, 0);

        let reopened = Store::open(&dir).expect("reopen");
        let stats = reopened.stats();
        assert_eq!(stats.segments, 1);
        assert_eq!(stats.segment_facts, 2);
        assert_eq!(stats.log_records, 0);
        assert_eq!(reopened.all_facts(), store.all_facts());

        // Appends continue into the next generation and reopen merges both.
        let mut store = reopened;
        store.append_quads(&[Quad::new(0, 0, 1, 4)]).expect("post-compact append");
        let again = Store::open(&dir).expect("reopen with segment + log");
        assert_eq!(again.all_facts().len(), 3);
        assert_eq!(again.end_t(), Some(4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_log_tail_is_truncated_on_open() {
        let dir = tmp("torn");
        let mut store = Store::create(&dir, "toy", Granularity::Day).expect("create");
        store.append_named(&[named("a", "r", "b", 0)]).expect("append 1");
        store.append_quads(&[Quad::new(1, 0, 0, 1)]).expect("append 2");
        let log = dir.join(store.manifest.log_file());
        let bytes = std::fs::read(&log).expect("read log");
        // Tear the final record mid-way: the valid prefix is record 1.
        std::fs::write(&log, &bytes[..bytes.len() - 5]).expect("tear");
        let store = Store::open(&dir).expect("open with torn tail");
        assert_eq!(store.all_facts(), vec![Quad::new(0, 0, 1, 0)]);
        // The truncation was persisted: a second open sees a clean log.
        let len = std::fs::metadata(&log).expect("meta").len();
        assert!(len < bytes.len() as u64);
        let again = Store::open(&dir).expect("second open");
        assert_eq!(again.all_facts(), vec![Quad::new(0, 0, 1, 0)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appender_matches_store_view() {
        let dir = tmp("appender");
        let mut store = Store::create(&dir, "toy", Granularity::Day).expect("create");
        store.append_named(&[named("a", "r", "b", 0)]).expect("seed");
        drop(store);
        let mut app = Appender::open(&dir).expect("appender");
        app.append_quads(&[Quad::new(1, 0, 0, 2)]).expect("append");
        assert_eq!(app.appended_facts(), 1);
        drop(app);
        let store = Store::open(&dir).expect("reopen");
        assert_eq!(store.all_facts(), vec![Quad::new(0, 0, 1, 0), Quad::new(1, 0, 0, 2)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appender_cuts_a_torn_tail_and_warns() {
        let dir = tmp("appender-torn");
        let mut store = Store::create(&dir, "toy", Granularity::Day).expect("create");
        store.append_named(&[named("a", "r", "b", 0)]).expect("append 1");
        store.append_quads(&[Quad::new(1, 0, 0, 1)]).expect("append 2");
        let log = dir.join(store.manifest.log_file());
        drop(store);
        let bytes = std::fs::read(&log).expect("read log");
        std::fs::write(&log, &bytes[..bytes.len() - 5]).expect("tear");

        let (sink, handle) = retia_obs::CaptureSink::new();
        let id = retia_obs::add_sink(Box::new(sink));
        let me = retia_obs::current_thread();
        let mut app = Appender::open(&dir).expect("appender over a torn log");
        retia_obs::remove_sink(id);
        let warned =
            handle.events().iter().any(|e| e.thread == me && e.name == "store.log_truncated");
        assert!(warned, "the appender cut the torn tail silently");

        app.append_quads(&[Quad::new(1, 0, 0, 2)]).expect("append 3");
        drop(app);
        let store = Store::open(&dir).expect("reopen");
        assert_eq!(store.all_facts(), vec![Quad::new(0, 0, 1, 0), Quad::new(1, 0, 0, 2)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tsv_parses_and_rejects() {
        let rows = parse_named_tsv("# comment\na\tr\tb\t0\n\nx y\tr z\tw\t3\n").expect("parse");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], named("x y", "r z", "w", 3));
        assert!(parse_named_tsv("a\tb\tc\n").is_err(), "3 fields accepted");
        assert!(parse_named_tsv("a\tb\tc\tnot-a-number\n").is_err(), "bad t accepted");
    }
}
