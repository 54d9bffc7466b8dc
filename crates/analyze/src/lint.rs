//! Repo-specific source lint (the `retia-lint` binary).
//!
//! Six rules, scanned over `crates/*/src` (plus `crates/tensor/tests` as
//! the evidence corpus for the kernel rule):
//!
//! - **no-unwrap** — library crates must not call `.unwrap()`, `panic!`, or
//!   `.expect("")` (an `expect` with an actionable message is fine). The CLI
//!   and bench crates are exempt; so is test code.
//! - **no-println** — stdout belongs to the CLI. Library crates must route
//!   diagnostics through `retia-obs` (stderr via `eprintln!` is allowed —
//!   that is the obs sink itself).
//! - **no-process-exit** — library crates must not call
//!   `std::process::exit`: it skips destructors and steals the exit-code
//!   decision from the binary. Return an error and let `main` decide.
//! - **kernel-bit-identity** — every kernel registered with
//!   `retia_obs::kernel_span("name")` in `crates/tensor/src` must be named in
//!   a test under `crates/tensor/tests`, keeping the thread-count
//!   bit-identity sweep in lockstep with the kernel set.
//! - **stage-span** — every serve pipeline stage constant declared in
//!   `crates/serve/src/stages.rs` must have an emission site: a `span!` or
//!   `record_stage` call naming the constant (or its string literal, in
//!   crates that cannot depend on retia-serve) somewhere under
//!   `crates/*/src`, keeping the request-trace taxonomy from drifting.
//! - **no-as-cast** — `crates/tensor/src` must not use bare `as` numeric
//!   casts: `as` silently truncates, wraps, and saturates, which is exactly
//!   the class of value bug the abstract interpreter exists to rule out.
//!   Use `From`/`TryFrom` (e.g. `f64::from(x)`, `u32::try_from(n)`) so the
//!   lossy conversions are explicit. Existing sites are grandfathered with
//!   exact per-file counts.
//!
//! Beyond the per-line rules, [`run`] also diffs the rendered
//! reduction-order sensitivity map
//! ([`retia_tensor::transfer::render_reduction_map`]) against the
//! checked-in `scripts/reduction-order.txt`, so a new accumulation loop (or
//! a reclassification of an existing one) cannot land without showing up in
//! review. Regenerate with `retia-lint --write-reduction-map`.
//!
//! Grandfathered sites live in `scripts/lint-allowlist.txt` as exact
//! `path rule count` entries. The ratchet is two-sided: more violations than
//! allowed fails, and *fewer* also fails (with instructions to lower the
//! entry), so the committed allowlist always matches reality and the count
//! can only go down.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Crates under `crates/` whose `src` is exempt from the in-library rules
/// (`no-unwrap`, `no-println`, `no-process-exit`): binaries talking to a
/// terminal.
const EXEMPT_CRATES: [&str; 2] = ["cli", "bench"];

/// One source file presented to the lint engine, path relative to the repo
/// root with forward slashes.
#[derive(Clone, Debug)]
pub struct SourceFile {
    pub path: String,
    pub content: String,
}

/// One rule violation at a specific line.
#[derive(Clone, Debug)]
pub struct Violation {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.detail)
    }
}

/// Result of a full lint run after the allowlist is applied.
#[derive(Debug, Default)]
pub struct LintOutcome {
    pub files_scanned: usize,
    pub violations_found: usize,
    pub violations_allowed: usize,
    /// Human-readable failure lines; empty means the lint passed.
    pub failures: Vec<String>,
}

impl LintOutcome {
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

// ---- code stripping --------------------------------------------------------

/// Returns `content` line by line with comments removed and string contents
/// replaced by a placeholder (empty strings stay empty, so `.expect("")`
/// remains detectable). Rule patterns match against these stripped lines,
/// never raw source, so a rule name inside a comment or string is not a hit.
fn strip_code(content: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut line = String::new();
    let mut chars = content.chars().peekable();
    let mut block_comment = 0usize;
    while let Some(c) = chars.next() {
        if c == '\n' {
            out.push(std::mem::take(&mut line));
            continue;
        }
        if block_comment > 0 {
            if c == '*' && chars.peek() == Some(&'/') {
                chars.next();
                block_comment -= 1;
            } else if c == '/' && chars.peek() == Some(&'*') {
                chars.next();
                block_comment += 1;
            }
            continue;
        }
        match c {
            '/' if chars.peek() == Some(&'/') => {
                // Line comment: drop the rest of the line.
                for d in chars.by_ref() {
                    if d == '\n' {
                        out.push(std::mem::take(&mut line));
                        break;
                    }
                }
            }
            '/' if chars.peek() == Some(&'*') => {
                chars.next();
                block_comment += 1;
            }
            '"' => {
                line.push('"');
                let mut empty = true;
                while let Some(d) = chars.next() {
                    match d {
                        '\\' => {
                            chars.next();
                            empty = false;
                        }
                        '"' => break,
                        _ => empty = false,
                    }
                }
                if !empty {
                    line.push('S');
                }
                line.push('"');
            }
            'r' if chars.peek() == Some(&'"') || chars.peek() == Some(&'#') => {
                // Raw string r"..." / r#"..."# (no escapes inside).
                let mut hashes = 0usize;
                while chars.peek() == Some(&'#') {
                    chars.next();
                    hashes += 1;
                }
                if chars.peek() == Some(&'"') {
                    chars.next();
                    line.push_str("\"S\"");
                    let closer: String =
                        std::iter::once('"').chain(std::iter::repeat_n('#', hashes)).collect();
                    let mut tail = String::new();
                    for d in chars.by_ref() {
                        tail.push(d);
                        if tail.ends_with(&closer) {
                            break;
                        }
                    }
                } else {
                    // `r#ident` raw identifier, not a string.
                    line.push('r');
                    for _ in 0..hashes {
                        line.push('#');
                    }
                }
            }
            '\'' => {
                // Char literal vs lifetime: 'x' / '\n' are literals; 'a in
                // `&'a str` is a lifetime (no closing quote right after).
                let mut ahead = chars.clone();
                match (ahead.next(), ahead.next()) {
                    (Some('\\'), _) => {
                        // Escaped char literal: consume through closing quote.
                        chars.next();
                        chars.next(); // the escaped char
                        for d in chars.by_ref() {
                            if d == '\'' {
                                break;
                            }
                        }
                        line.push_str("'C'");
                    }
                    (Some(_), Some('\'')) => {
                        chars.next();
                        chars.next();
                        line.push_str("'C'");
                    }
                    _ => line.push('\''), // lifetime marker
                }
            }
            _ => line.push(c),
        }
    }
    if !line.is_empty() {
        out.push(line);
    }
    out
}

/// Marks lines inside `#[cfg(test)]`-gated blocks. Returns one flag per
/// stripped line; `true` means "test code, skip in-library rules".
fn test_block_mask(stripped: &[String]) -> Vec<bool> {
    let mut mask = vec![false; stripped.len()];
    let mut i = 0usize;
    while i < stripped.len() {
        if stripped[i].contains("#[cfg(test)]") {
            // Skip until the block opened after the attribute closes. A `;`
            // before any `{` means the attribute gated a single item.
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < stripped.len() {
                mask[j] = true;
                for c in stripped[j].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        ';' if !opened => {
                            depth = -1; // single gated item, stop here
                        }
                        _ => {}
                    }
                    if opened && depth == 0 {
                        break;
                    }
                    if depth < 0 {
                        break;
                    }
                }
                if (opened && depth == 0) || depth < 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

// ---- rules -----------------------------------------------------------------

/// Crate name if `path` is a library source file (`crates/<name>/src/...`).
fn library_crate(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (krate, tail) = rest.split_once('/')?;
    if !tail.starts_with("src/") || EXEMPT_CRATES.contains(&krate) {
        return None;
    }
    Some(krate)
}

/// Occurrences of `pat` in `line` that start at a token boundary (not
/// preceded by an identifier character), so `eprintln!` is not a `println!`
/// hit and `reprint!` is not a `print!` hit.
fn token_hits(line: &str, pat: &str) -> usize {
    // Patterns starting with `.` carry their own boundary; identifier-led
    // patterns must not be preceded by an identifier character.
    let needs_boundary = pat.starts_with(|c: char| c.is_alphanumeric() || c == '_');
    line.match_indices(pat)
        .filter(|(pos, _)| {
            !needs_boundary || !line[..*pos].ends_with(|c: char| c.is_alphanumeric() || c == '_')
        })
        .count()
}

fn scan_in_library_rules(file: &SourceFile, violations: &mut Vec<Violation>) {
    if library_crate(&file.path).is_none() {
        return;
    }
    let stripped = strip_code(&file.content);
    let mask = test_block_mask(&stripped);
    let unwrap_patterns: [(&str, &str); 3] = [
        (
            ".unwrap()",
            "`.unwrap()` in library code: return a typed error or `expect` with an actionable \
             message",
        ),
        ("panic!", "`panic!` in library code: return a typed error instead"),
        (".expect(\"\")", "`.expect(\"\")` with an empty message: say what invariant failed"),
    ];
    for (idx, line) in stripped.iter().enumerate() {
        if mask[idx] {
            continue;
        }
        let lineno = idx + 1;
        for (pat, detail) in unwrap_patterns {
            for _ in 0..token_hits(line, pat) {
                violations.push(Violation {
                    path: file.path.clone(),
                    line: lineno,
                    rule: "no-unwrap",
                    detail: detail.to_string(),
                });
            }
        }
        for _ in 0..(token_hits(line, "println!") + token_hits(line, "print!(")) {
            violations.push(Violation {
                path: file.path.clone(),
                line: lineno,
                rule: "no-println",
                detail: "stdout printing in library code: route through retia-obs".to_string(),
            });
        }
        for _ in 0..token_hits(line, "process::exit") {
            violations.push(Violation {
                path: file.path.clone(),
                line: lineno,
                rule: "no-process-exit",
                detail: "`std::process::exit` in library code: it skips destructors and \
                         preempts the binary's exit-code policy — return an error instead"
                    .to_string(),
            });
        }
    }
}

/// Extracts kernel names registered via `kernel_span("...")`.
fn kernel_names(stripped: &[String]) -> Vec<(usize, String)> {
    let mut names = Vec::new();
    for (idx, line) in stripped.iter().enumerate() {
        let mut rest = line.as_str();
        while let Some(pos) = rest.find("kernel_span(\"") {
            rest = &rest[pos + "kernel_span(\"".len()..];
            if let Some(end) = rest.find('"') {
                names.push((idx + 1, rest[..end].to_string()));
                rest = &rest[end..];
            } else {
                break;
            }
        }
    }
    names
}

/// Rule `kernel-bit-identity`: every tensor kernel name must appear (quoted)
/// in `crates/tensor/tests`.
fn scan_kernel_rule(files: &[SourceFile], violations: &mut Vec<Violation>) {
    let test_corpus: String = files
        .iter()
        .filter(|f| f.path.starts_with("crates/tensor/tests/"))
        .map(|f| f.content.as_str())
        .collect();
    for file in files {
        if !file.path.starts_with("crates/tensor/src/") {
            continue;
        }
        // Placeholder-stripped lines still carry kernel_span("S") markers, so
        // extract names from the raw content but drop commented-out lines.
        let stripped = strip_code(&file.content);
        let raw_lines: Vec<&str> = file.content.lines().collect();
        for (lineno, _) in kernel_names(&stripped) {
            let raw = raw_lines.get(lineno - 1).copied().unwrap_or("");
            for (_, name) in kernel_names(&[raw.to_string()]) {
                if !test_corpus.contains(&format!("\"{name}\"")) {
                    violations.push(Violation {
                        path: file.path.clone(),
                        line: lineno,
                        rule: "kernel-bit-identity",
                        detail: format!(
                            "kernel `{name}` has no bit-identity test naming it in \
                             crates/tensor/tests"
                        ),
                    });
                }
            }
        }
    }
}

/// Path of the serve pipeline's canonical stage-name constants.
const STAGES_PATH: &str = "crates/serve/src/stages.rs";

/// How many lines after a `span!(`/`record_stage(` call head still count as
/// part of that call when looking for the stage argument (rustfmt wraps the
/// arguments of long calls onto following lines).
const STAGE_EVIDENCE_WINDOW: usize = 4;

/// Occurrences of `ident` in `line` bounded by non-identifier characters on
/// both sides (unlike [`token_hits`], which only checks the left side) — so
/// `DECODE` does not match inside a longer name such as `DECODE_BATCH`.
fn ident_hit(line: &str, ident: &str) -> bool {
    line.match_indices(ident).any(|(pos, _)| {
        let left_ok = !line[..pos].ends_with(|c: char| c.is_alphanumeric() || c == '_');
        let right_ok =
            !line[pos + ident.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_');
        left_ok && right_ok
    })
}

/// Rule `stage-span`: every stage constant declared in
/// `crates/serve/src/stages.rs` (`pub const NAME: &str = "serve...";`) must
/// have an emission site — a `span!(` or `record_stage(` call referencing
/// the constant, or (for crates that cannot depend on retia-serve) its
/// string literal — somewhere under `crates/*/src`. This keeps the span
/// taxonomy the docs and the trace store rely on in lockstep with the code:
/// a renamed or orphaned stage fails the lint instead of silently vanishing
/// from request traces.
fn scan_stage_span_rule(files: &[SourceFile], violations: &mut Vec<Violation>) {
    let Some(stage_file) = files.iter().find(|f| f.path == STAGES_PATH) else {
        return;
    };
    // Declarations: names from the stripped lines (comment-proof), literals
    // from the raw line (stripping blanks string contents).
    let stripped = strip_code(&stage_file.content);
    let raw_lines: Vec<&str> = stage_file.content.lines().collect();
    let mut stages: Vec<(usize, String, String)> = Vec::new();
    for (idx, line) in stripped.iter().enumerate() {
        let Some(pos) = line.find("const ") else { continue };
        let rest = &line[pos + "const ".len()..];
        if !rest.contains(": &str") {
            continue;
        }
        let ident: String = rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        let Some(lit) = raw_lines.get(idx).and_then(|raw| raw.split('"').nth(1)) else {
            continue;
        };
        if !ident.is_empty() {
            stages.push((idx + 1, ident, lit.to_string()));
        }
    }
    // Evidence: for every span!/record_stage call head in library sources,
    // the stripped lines of the call window (for identifier references) and
    // the raw lines (for string literals — stripping blanked them).
    let mut ident_corpus: Vec<String> = Vec::new();
    let mut literal_corpus: Vec<String> = Vec::new();
    for file in files {
        if file.path == STAGES_PATH
            || !file.path.starts_with("crates/")
            || !file.path.contains("/src/")
        {
            continue;
        }
        let s = strip_code(&file.content);
        let raws: Vec<&str> = file.content.lines().collect();
        for (idx, line) in s.iter().enumerate() {
            if line.contains("span!(") || line.contains("record_stage(") {
                let end = (idx + STAGE_EVIDENCE_WINDOW).min(s.len());
                ident_corpus.push(s[idx..end].join(" "));
                literal_corpus.push(raws[idx..end.min(raws.len())].join(" "));
            }
        }
    }
    for (lineno, ident, lit) in stages {
        let quoted = format!("\"{lit}\"");
        let emitted = ident_corpus.iter().any(|w| ident_hit(w, &ident))
            || literal_corpus.iter().any(|w| w.contains(&quoted));
        if !emitted {
            violations.push(Violation {
                path: STAGES_PATH.to_string(),
                line: lineno,
                rule: "stage-span",
                detail: format!(
                    "stage constant `{ident}` (\"{lit}\") has no span!/record_stage emission \
                     site under crates/*/src — emit it or retire the stage"
                ),
            });
        }
    }
}

/// Numeric primitive types a bare `as` cast can target. `as` between these
/// silently truncates (`f64 as f32`), wraps (`usize as u32`), or saturates
/// (`f32 as i64`) — the exact value bugs the interval domain tracks.
const CAST_TARGETS: [&str; 12] =
    ["f32", "f64", "usize", "isize", "u8", "u16", "u32", "u64", "i8", "i16", "i32", "i64"];

/// Rule `no-as-cast`: no bare `as` numeric casts in `crates/tensor/src`.
/// The kernel crate is where a silently-lossy conversion does the most
/// damage (it feeds every downstream layer), so conversions there must go
/// through `From`/`TryFrom`, which name their failure mode.
fn scan_as_cast_rule(file: &SourceFile, violations: &mut Vec<Violation>) {
    if !file.path.starts_with("crates/tensor/src/") {
        return;
    }
    let stripped = strip_code(&file.content);
    let mask = test_block_mask(&stripped);
    for (idx, line) in stripped.iter().enumerate() {
        if mask[idx] {
            continue;
        }
        for (pos, _) in line.match_indices(" as ") {
            let target: String = line[pos + " as ".len()..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if CAST_TARGETS.contains(&target.as_str()) {
                violations.push(Violation {
                    path: file.path.clone(),
                    line: idx + 1,
                    rule: "no-as-cast",
                    detail: format!(
                        "bare `as {target}` cast in the kernel crate: use `From`/`TryFrom` so \
                         the lossy conversion is explicit"
                    ),
                });
            }
        }
    }
}

/// Runs every rule over the given sources. Pure function of the inputs.
pub fn scan_sources(files: &[SourceFile]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for file in files {
        scan_in_library_rules(file, &mut violations);
        scan_as_cast_rule(file, &mut violations);
    }
    scan_kernel_rule(files, &mut violations);
    scan_stage_span_rule(files, &mut violations);
    violations.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    violations
}

// ---- allowlist -------------------------------------------------------------

/// Parses `path rule count` lines (blank lines and `#` comments ignored).
pub fn parse_allowlist(text: &str) -> Result<BTreeMap<(String, String), usize>, String> {
    let mut allow = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (path, rule, count) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(p), Some(r), Some(c), None) => (p, r, c),
            _ => {
                return Err(format!(
                    "allowlist line {}: expected `path rule count`, got `{line}`",
                    lineno + 1
                ))
            }
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("allowlist line {}: bad count `{count}`", lineno + 1))?;
        if allow.insert((path.to_string(), rule.to_string()), count).is_some() {
            return Err(format!(
                "allowlist line {}: duplicate entry for {path} {rule}",
                lineno + 1
            ));
        }
    }
    Ok(allow)
}

/// Applies the exact-count ratchet: per `(path, rule)`, more violations than
/// allowed fails with the sites listed; fewer also fails, demanding the
/// allowlist entry be lowered. Returns failure lines (empty = pass).
pub fn apply_allowlist(
    violations: &[Violation],
    allow: &BTreeMap<(String, String), usize>,
) -> Vec<String> {
    let mut by_key: BTreeMap<(String, String), Vec<&Violation>> = BTreeMap::new();
    for v in violations {
        by_key.entry((v.path.clone(), v.rule.to_string())).or_default().push(v);
    }
    let mut failures = Vec::new();
    for (key, group) in &by_key {
        let allowed = allow.get(key).copied().unwrap_or(0);
        if group.len() > allowed {
            let mut msg =
                format!("{} {}: {} violation(s), {} allowed:", key.0, key.1, group.len(), allowed);
            for v in group {
                let _ = write!(msg, "\n    {v}");
            }
            failures.push(msg);
        } else if group.len() < allowed {
            failures.push(format!(
                "{} {}: allowlist grants {} but only {} found — lower the entry (the ratchet \
                 only goes down)",
                key.0,
                key.1,
                allowed,
                group.len()
            ));
        }
    }
    for (key, &allowed) in allow {
        if allowed > 0 && !by_key.contains_key(key) {
            failures.push(format!(
                "{} {}: allowlist grants {} but none found — remove the stale entry",
                key.0, key.1, allowed
            ));
        }
    }
    failures
}

// ---- reduction-order map ---------------------------------------------------

/// Path of the checked-in reduction-order sensitivity map, relative to the
/// workspace root.
pub const REDUCTION_MAP_PATH: &str = "scripts/reduction-order.txt";

/// Diffs the checked-in reduction-order map against the one rendered from
/// [`retia_tensor::transfer::REDUCTION_SITES`]. Returns failure lines
/// (empty = in sync). A missing file fails with regeneration instructions.
pub fn check_reduction_map(root: &Path) -> std::io::Result<Vec<String>> {
    let expected = retia_tensor::transfer::render_reduction_map();
    let path = root.join(REDUCTION_MAP_PATH);
    let actual = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(vec![format!(
                "{REDUCTION_MAP_PATH}: missing — generate it with \
                 `cargo run -p retia-analyze --bin retia-lint -- --write-reduction-map`"
            )])
        }
        Err(e) => return Err(e),
    };
    if actual == expected {
        return Ok(Vec::new());
    }
    let mut failures = vec![format!(
        "{REDUCTION_MAP_PATH}: out of sync with retia_tensor::transfer::REDUCTION_SITES — \
         regenerate with `retia-lint -- --write-reduction-map` and review the diff"
    )];
    let got: Vec<&str> = actual.lines().collect();
    let want: Vec<&str> = expected.lines().collect();
    for i in 0..got.len().max(want.len()) {
        let g = got.get(i).copied().unwrap_or("<missing>");
        let w = want.get(i).copied().unwrap_or("<missing>");
        if g != w {
            failures.push(format!("    line {}: checked in `{g}`, code renders `{w}`", i + 1));
            break;
        }
    }
    Ok(failures)
}

// ---- filesystem driver -----------------------------------------------------

fn push_rs_files(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            push_rs_files(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            out.push(SourceFile { path: rel, content: std::fs::read_to_string(&path)? });
        }
    }
    Ok(())
}

/// Collects every `crates/*/src/**.rs` and `crates/*/tests/**.rs` file under
/// the workspace root.
pub fn collect_workspace_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crates: Vec<_> = std::fs::read_dir(&crates_dir)?.collect::<Result<_, _>>()?;
    crates.sort_by_key(|e| e.path());
    for krate in crates {
        if krate.path().is_dir() {
            push_rs_files(&krate.path().join("src"), root, &mut files)?;
            push_rs_files(&krate.path().join("tests"), root, &mut files)?;
        }
    }
    Ok(files)
}

/// Full lint run: collect sources, scan, apply the allowlist at
/// `scripts/lint-allowlist.txt` (missing file = empty allowlist).
pub fn run(root: &Path) -> std::io::Result<LintOutcome> {
    let files = collect_workspace_sources(root)?;
    let violations = scan_sources(&files);
    let allow_path = root.join("scripts/lint-allowlist.txt");
    let allow_text = match std::fs::read_to_string(&allow_path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let mut outcome = LintOutcome {
        files_scanned: files.len(),
        violations_found: violations.len(),
        ..LintOutcome::default()
    };
    match parse_allowlist(&allow_text) {
        Ok(allow) => {
            outcome.violations_allowed = allow.values().sum();
            outcome.failures = apply_allowlist(&violations, &allow);
        }
        Err(e) => outcome.failures.push(e),
    }
    outcome.failures.extend(check_reduction_map(root)?);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_file(content: &str) -> SourceFile {
        SourceFile { path: "crates/tensor/src/x.rs".to_string(), content: content.to_string() }
    }

    #[test]
    fn unwrap_rule_fires_in_library_code() {
        let v = scan_sources(&[lib_file("fn f() { x.unwrap(); }\n")]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-unwrap");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn panic_and_empty_expect_fire() {
        let src = "fn f() { panic!(\"boom\"); }\nfn g() { y.expect(\"\"); }\n";
        let v = scan_sources(&[lib_file(src)]);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == "no-unwrap"));
    }

    #[test]
    fn expect_with_message_is_allowed() {
        let v = scan_sources(&[lib_file("fn f() { y.expect(\"index precomputed above\"); }\n")]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn comments_strings_and_test_mods_are_skipped() {
        let src = "\
// x.unwrap() in a comment\n\
/* panic!(\"no\") */\n\
fn f() { let s = \".unwrap()\"; }\n\
#[cfg(test)]\n\
mod tests {\n\
    fn g() { x.unwrap(); println!(\"ok\"); }\n\
}\n";
        let v = scan_sources(&[lib_file(src)]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cli_and_bench_are_exempt() {
        for path in ["crates/cli/src/main.rs", "crates/bench/src/lib.rs"] {
            let f = SourceFile {
                path: path.to_string(),
                content: "fn f() { println!(\"hi\"); x.unwrap(); }\n".to_string(),
            };
            assert!(scan_sources(&[f]).is_empty());
        }
    }

    #[test]
    fn println_rule_allows_eprintln() {
        let src = "fn f() { eprintln!(\"diag\"); }\nfn g() { println!(\"out\"); }\n";
        let v = scan_sources(&[lib_file(src)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-println");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn process_exit_rule_fires_in_library_code() {
        let v = scan_sources(&[lib_file("fn f() { std::process::exit(1); }\n")]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-process-exit");
        // The CLI is a binary and may exit.
        let cli = SourceFile {
            path: "crates/cli/src/main.rs".to_string(),
            content: "fn f() { std::process::exit(1); }\n".to_string(),
        };
        assert!(scan_sources(&[cli]).is_empty());
        // `std::process::id()` and a comment mention are not hits.
        let ok = lib_file("fn f() -> u32 { std::process::id() } // process::exit\n");
        assert!(scan_sources(&[ok]).is_empty());
    }

    #[test]
    fn kernel_rule_requires_named_test() {
        let kernel = SourceFile {
            path: "crates/tensor/src/k.rs".to_string(),
            content: "fn m() { let _t = retia_obs::kernel_span(\"mystery_kernel\"); }\n"
                .to_string(),
        };
        let v = scan_sources(std::slice::from_ref(&kernel));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "kernel-bit-identity");
        let test = SourceFile {
            path: "crates/tensor/tests/sweep.rs".to_string(),
            content: "fn t() { sweep(\"mystery_kernel\"); }\n".to_string(),
        };
        assert!(scan_sources(&[kernel, test]).is_empty());
    }

    fn stages_file(content: &str) -> SourceFile {
        SourceFile { path: STAGES_PATH.to_string(), content: content.to_string() }
    }

    #[test]
    fn stage_span_rule_requires_an_emission_site() {
        let stages = stages_file("pub const RECV: &str = \"serve.recv\";\n");
        // No emission anywhere: one violation at the declaration line.
        let v = scan_sources(std::slice::from_ref(&stages));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("stage-span", 1));
        // A span! call naming the constant satisfies the rule, including
        // when rustfmt wraps the argument onto the next line.
        let emit = SourceFile {
            path: "crates/serve/src/server.rs".to_string(),
            content: "fn f() { let _t = retia_obs::span!(\n    stages::RECV,\n); }\n".to_string(),
        };
        assert!(scan_sources(&[stages.clone(), emit]).is_empty());
        // A record_stage call carrying the string literal (another crate
        // that cannot name the constant) also satisfies it.
        let literal = SourceFile {
            path: "crates/core/src/frozen.rs".to_string(),
            content: "fn g() { trace::record_stage(&fr, \"serve.recv\", 0, 1); }\n".to_string(),
        };
        assert!(scan_sources(&[stages.clone(), literal]).is_empty());
        // The constant mentioned outside any span!/record_stage call does
        // NOT count as an emission site.
        let mere_use = SourceFile {
            path: "crates/serve/src/server.rs".to_string(),
            content: "fn h() { let _ = stages::RECV; }\n".to_string(),
        };
        assert_eq!(scan_sources(&[stages, mere_use]).len(), 1);
    }

    #[test]
    fn stage_span_rule_idents_need_both_boundaries() {
        // Emitting only DECODE_SHARD must not satisfy a DECODE constant.
        let stages = stages_file(
            "pub const DECODE: &str = \"serve.decode\";\n\
             pub const DECODE_SHARD: &str = \"serve.decode.shard\";\n",
        );
        let emit = SourceFile {
            path: "crates/serve/src/engine.rs".to_string(),
            content: "fn f() { let _t = retia_obs::span!(stages::DECODE_SHARD); }\n".to_string(),
        };
        let v = scan_sources(&[stages, emit]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.contains("`DECODE`"), "{v:?}");
    }

    #[test]
    fn as_cast_rule_fires_only_in_the_tensor_crate() {
        let v = scan_sources(&[lib_file("fn f(n: usize) -> f64 { n as f64 }\n")]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-as-cast");
        assert!(v[0].detail.contains("as f64"), "{v:?}");
        // Other crates may cast (their values never feed a kernel directly).
        let other = SourceFile {
            path: "crates/nn/src/x.rs".to_string(),
            content: "fn f(n: usize) -> f64 { n as f64 }\n".to_string(),
        };
        assert!(scan_sources(&[other]).is_empty());
        // `use ... as _` renames and casts in comments/tests are not hits.
        let ok = lib_file(
            "use std::fmt::Write as _;\n\
             // let x = n as f32;\n\
             #[cfg(test)]\n\
             mod tests {\n    fn g(n: usize) -> f32 { n as f32 }\n}\n",
        );
        let ok_hits = scan_sources(std::slice::from_ref(&ok));
        assert!(ok_hits.is_empty(), "{ok_hits:?}");
        // Non-numeric `as` (trait objects, pointer syntax in macros) is fine.
        let dyn_ok = lib_file("fn f(e: E) -> Box<dyn Err> { Box::new(e) as Box<dyn Err> }\n");
        assert!(scan_sources(&[dyn_ok]).is_empty());
    }

    #[test]
    fn reduction_map_check_catches_drift_and_missing_file() {
        let dir = std::env::temp_dir().join(format!("retia-lint-map-{}", std::process::id()));
        let scripts = dir.join("scripts");
        std::fs::create_dir_all(&scripts).expect("create temp scripts dir");
        // Missing file: fails with regeneration instructions.
        let missing = check_reduction_map(&dir).expect("io ok");
        assert_eq!(missing.len(), 1);
        assert!(missing[0].contains("--write-reduction-map"), "{missing:?}");
        // Exact render: clean.
        let map_path = scripts.join("reduction-order.txt");
        std::fs::write(&map_path, retia_tensor::transfer::render_reduction_map())
            .expect("write map");
        assert!(check_reduction_map(&dir).expect("io ok").is_empty());
        // One flipped classification: drift reported with the line.
        let tampered =
            retia_tensor::transfer::render_reduction_map().replacen("sensitive", "invariant", 1);
        std::fs::write(&map_path, tampered).expect("write tampered map");
        let drift = check_reduction_map(&dir).expect("io ok");
        assert_eq!(drift.len(), 2, "{drift:?}");
        assert!(drift[0].contains("out of sync"), "{drift:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn allowlist_exact_count_ratchet() {
        let v = scan_sources(&[lib_file("fn f() { x.unwrap(); y.unwrap(); }\n")]);
        assert_eq!(v.len(), 2);
        let exact =
            parse_allowlist("crates/tensor/src/x.rs no-unwrap 2\n").expect("well-formed allowlist");
        assert!(apply_allowlist(&v, &exact).is_empty());
        let low =
            parse_allowlist("crates/tensor/src/x.rs no-unwrap 1\n").expect("well-formed allowlist");
        assert_eq!(apply_allowlist(&v, &low).len(), 1);
        let high =
            parse_allowlist("crates/tensor/src/x.rs no-unwrap 3\n").expect("well-formed allowlist");
        let failures = apply_allowlist(&v, &high);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("ratchet"), "{failures:?}");
        let stale =
            parse_allowlist("crates/other/src/y.rs no-unwrap 1\n").expect("well-formed allowlist");
        assert!(apply_allowlist(&v, &stale).iter().any(|f| f.contains("stale")));
    }

    #[test]
    fn allowlist_rejects_malformed_lines() {
        assert!(parse_allowlist("just-a-path\n").is_err());
        assert!(parse_allowlist("p r not-a-number\n").is_err());
        assert!(parse_allowlist("p r 1\np r 2\n").is_err());
        assert!(parse_allowlist("# comment\n\np r 3\n").is_ok());
    }

    #[test]
    fn stripper_handles_lifetimes_chars_and_raw_strings() {
        let src = "fn f<'a>(x: &'a str) -> char { let c = 'x'; let n = '\\n'; \
                   let r = r\"panic!\"; let h = r#\"u.unwrap()\"#; c }\n";
        let stripped = strip_code(src);
        assert_eq!(stripped.len(), 1);
        assert!(!stripped[0].contains("panic!"), "{}", stripped[0]);
        assert!(!stripped[0].contains(".unwrap()"), "{}", stripped[0]);
        assert!(stripped[0].contains("fn f<'a>"), "{}", stripped[0]);
    }
}
