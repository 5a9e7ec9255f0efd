//! IR extraction: from lexed source to `wdog_gen::ProgramIr`.
//!
//! This is the paper's §4.1 front end (Soot over bytecode, there) rebuilt
//! over the token model:
//!
//! 1. **Entry discovery** — `spawn(move || ...)` sites become
//!    continuously-executed entry functions: named spawn targets
//!    (`spawn(move || worker_loop(..))`) mark the target; inline closures
//!    become synthetic entries named after the hook context key they bind.
//!    Functions that fire a hook key but are reachable from no entry are
//!    promoted to entries — they run on caller threads (e.g. a
//!    request-path `write_block`). Only functions an entry reaches are
//!    extracted, so initialization code never enters the IR (paper §4.1).
//! 2. **Operation classification** — every call site is matched against
//!    the shared [`wdog_gen::patterns`] rule table; resources come from
//!    string-literal arguments, crate consts, `// wdog: resource` function
//!    defaults, or the receiver chain (locks).
//! 3. **Call graph** — unclassified calls are edges when the callee name is
//!    unique in the crate (the extractor's stand-in for devirtualization;
//!    ambiguous names — trait methods with several impls — are not edges,
//!    which is exactly where `// wdog: vulnerable` annotations step in).
//!    Every other call is deterministic code: a [`OpKind::Compute`] op
//!    named `det:<callee>`, in a namespace of its own so that no
//!    vulnerable op's ordinal depends on it. Reduction drops them all.
//! 4. **Hook fires** — `fire` on a `site("key")` binding, a local
//!    (`let hook = hooks.site("key")`) or a struct field
//!    (`txn_hook: hooks.site("key")`), marks the region of `key`, and the
//!    `field("name", ..)` calls on its `if let Some(mut g) = site.fire()`
//!    guard record the fields published into it
//!    ([`ProgramIr::regions_fired`]). A site reached any other way (a
//!    parameter, say) is unresolved and noted.
//!
//! Annotations (`// wdog: <directive>` on the line above, or up to two
//! lines above, the item they govern):
//!
//! | directive | meaning |
//! |---|---|
//! | `vulnerable [name=N] [kind=K] [resource=R]` | next call becomes an op; without `kind=`, a custom (annotated) op |
//! | `resource R` | above an `fn`: default resource for its resource-less ops |
//! | `ignore` | next `spawn` closure or call is invisible to extraction |

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use wdog_gen::ir::{Function, OpKind, Operation, ProgramIr};
use wdog_gen::patterns::{classify_callee, kind_for_label, resource_family};

use crate::lexer::{Tok, Token};
use crate::model::{matching_brace, matching_paren, CrateModel, SourceFile};

/// Scope configuration for one target crate.
#[derive(Debug, Clone)]
pub struct TargetConfig {
    /// Program name, the name of the extracted IR.
    pub name: &'static str,
    /// Source directory, workspace-relative.
    pub src_dir: &'static str,
    /// File names excluded from function analysis (still scanned for
    /// consts). Watchdog integration (`wd.rs`, `target.rs`), peer
    /// processes, and state-manager internals below the op granularity
    /// the IR models.
    pub exclude: &'static [&'static str],
}

/// The three reproduction targets.
pub const TARGETS: &[TargetConfig] = &[
    TargetConfig {
        name: "kvs",
        src_dir: "crates/kvs/src",
        exclude: &["wd.rs", "target.rs", "index.rs", "partition.rs"],
    },
    TargetConfig {
        name: "minizk",
        src_dir: "crates/minizk/src",
        exclude: &["wd.rs", "target.rs"],
    },
    TargetConfig {
        name: "miniblock",
        src_dir: "crates/miniblock/src",
        exclude: &["wd.rs", "target.rs", "namenode.rs", "disk_checker.rs"],
    },
];

/// Looks up a builtin target by name.
pub fn target_named(name: &str) -> Option<&'static TargetConfig> {
    TARGETS.iter().find(|t| t.name == name)
}

/// The workspace root, resolved from this crate's manifest location.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Extraction output: the IR plus what extraction could not resolve.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExtractedProgram {
    /// The extracted IR.
    pub ir: ProgramIr,
    /// Non-fatal diagnostics from extraction.
    pub notes: Vec<String>,
}

/// Reads a target crate's `.rs` sources as `(workspace-relative path,
/// text)` pairs, sorted by path.
pub fn read_sources(cfg: &TargetConfig) -> std::io::Result<Vec<(String, String)>> {
    let dir = workspace_root().join(cfg.src_dir);
    let mut names: Vec<String> = std::fs::read_dir(&dir)?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(".rs"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let src = std::fs::read_to_string(dir.join(&n))?;
            Ok((format!("{}/{n}", cfg.src_dir), src))
        })
        .collect()
}

impl TargetConfig {
    /// The crate model over `sources` (as [`read_sources`] returns them).
    /// With `exclusions`, the files in [`TargetConfig::exclude`] are
    /// scanned for consts only.
    pub fn model(&self, sources: &[(String, String)], exclusions: bool) -> CrateModel {
        let files = sources
            .iter()
            .map(|(rel, src)| {
                let fname = rel.rsplit('/').next().unwrap_or(rel);
                SourceFile::parse(
                    rel.clone(),
                    src,
                    exclusions && self.exclude.contains(&fname),
                )
            })
            .collect();
        CrateModel::build(files)
    }
}

/// Reads and extracts a builtin or custom target from disk.
pub fn extract_target(cfg: &TargetConfig) -> std::io::Result<ExtractedProgram> {
    let sources = read_sources(cfg)?;
    Ok(extract_model(cfg.name, cfg.model(&sources, true)))
}

/// A parsed `// wdog:` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Directive {
    Vulnerable {
        name: Option<String>,
        kind: Option<OpKind>,
        resource: Option<String>,
    },
    Resource(String),
    Ignore,
}

fn parse_directive(body: &str) -> Option<Directive> {
    let mut words = body.split_whitespace();
    match words.next()? {
        "ignore" => Some(Directive::Ignore),
        "resource" => Some(Directive::Resource(words.next()?.to_owned())),
        "vulnerable" => {
            let mut name = None;
            let mut kind = None;
            let mut resource = None;
            for word in words {
                if let Some(v) = word.strip_prefix("name=") {
                    name = Some(v.to_owned());
                } else if let Some(v) = word.strip_prefix("kind=") {
                    kind = kind_for_label(v);
                } else if let Some(v) = word.strip_prefix("resource=") {
                    resource = Some(v.to_owned());
                }
            }
            Some(Directive::Vulnerable {
                name,
                kind,
                resource,
            })
        }
        _ => None,
    }
}

/// One analysis unit: a declared function or a synthetic spawn closure.
#[derive(Debug)]
struct Unit {
    name: String,
    file: usize,
    sig_line: u32,
    body: std::ops::Range<usize>,
    /// Token ranges inside `body` to skip (spawn argument groups).
    skip: Vec<std::ops::Range<usize>>,
    entry: bool,
    synthetic: bool,
    /// Original declared name before any entry rename (for resolution).
    decl_name: String,
}

#[derive(Debug, Default)]
struct UnitFacts {
    ops: Vec<Operation>,
    /// Context keys this unit fires, with published field names.
    fires: BTreeMap<String, BTreeSet<String>>,
}

struct Extractor {
    program: String,
    model: CrateModel,
    units: Vec<Unit>,
    /// Struct-field hook sites: field name -> context key.
    field_sites: BTreeMap<String, String>,
    /// Per-file consumed-annotation flags.
    used_ann: Vec<Vec<bool>>,
    notes: Vec<String>,
}

/// Extracts a program from an in-memory crate model (fs-free; tests use
/// this directly).
pub fn extract_model(program: &str, model: CrateModel) -> ExtractedProgram {
    let used_ann = model
        .files
        .iter()
        .map(|f| vec![false; f.annotations.len()])
        .collect();
    let mut ex = Extractor {
        program: program.to_owned(),
        model,
        units: Vec::new(),
        field_sites: BTreeMap::new(),
        used_ann,
        notes: Vec::new(),
    };
    ex.collect_field_sites();
    ex.collect_units();
    ex.assemble()
}

impl Extractor {
    fn tokens(&self, file: usize) -> &[Token] {
        &self.model.files[file].tokens
    }

    /// Finds and consumes an unconsumed directive of the shape `want`
    /// within `window` lines above (or on) `line` in `file`.
    fn take_directive(
        &mut self,
        file: usize,
        line: u32,
        window: u32,
        want: fn(&Directive) -> bool,
    ) -> Option<Directive> {
        let anns = &self.model.files[file].annotations;
        for (i, ann) in anns.iter().enumerate() {
            if self.used_ann[file][i] || ann.line > line || line - ann.line > window {
                continue;
            }
            if let Some(d) = parse_directive(&ann.body) {
                if want(&d) {
                    self.used_ann[file][i] = true;
                    return Some(d);
                }
            }
        }
        None
    }

    /// Pre-pass: `field: hooks.site("key")` struct-field bindings, found
    /// anywhere in any included file.
    fn collect_field_sites(&mut self) {
        let mut found = Vec::new();
        for file in self.model.files.iter().filter(|f| !f.excluded) {
            let toks = &file.tokens;
            for i in 0..toks.len() {
                if toks[i].ident() != Some("site") {
                    continue;
                }
                let Some((key, _)) = site_call_key(toks, i) else {
                    continue;
                };
                if let Some(Binding::Field(name)) = site_binding(toks, i) {
                    found.push((name, key));
                }
            }
        }
        for (name, key) in found {
            self.field_sites.insert(name, key);
        }
    }

    /// Discovers units: declared fns, spawn-target entries, and synthetic
    /// closure entries; computes skip ranges for spawn argument groups.
    fn collect_units(&mut self) {
        for decl in self.model.fns.clone() {
            self.units.push(Unit {
                name: decl.name.clone(),
                decl_name: decl.name,
                file: decl.file,
                sig_line: decl.sig_line,
                body: decl.body,
                skip: Vec::new(),
                entry: false,
                synthetic: false,
            });
        }
        let mut named_entries: BTreeSet<String> = BTreeSet::new();
        let mut synthetics: Vec<Unit> = Vec::new();
        for u in 0..self.units.len() {
            let (file, body) = (self.units[u].file, self.units[u].body.clone());
            let mut i = body.start;
            while i < body.end {
                // `spawn_on(clock, name, closure)` is the clock-registered
                // wrapper over `thread::spawn` — same entry semantics.
                let is_spawn = matches!(self.tokens(file)[i].ident(), Some("spawn" | "spawn_on"))
                    && self
                        .tokens(file)
                        .get(i + 1)
                        .is_some_and(|t| t.is_punct('('));
                if !is_spawn {
                    i += 1;
                    continue;
                }
                let open = i + 1;
                let Some(close) = matching_paren(self.tokens(file), open) else {
                    i += 1;
                    continue;
                };
                let Some(closure) = closure_body(self.tokens(file), open, close) else {
                    i += 1; // e.g. `Follower::spawn(net, addr)` — a plain call
                    continue;
                };
                // The whole spawn argument group is invisible to the
                // parent's own walk; spawned work is its own unit.
                self.units[u].skip.push(open..close + 1);
                let spawn_line = self.tokens(file)[i].line;
                if self
                    .take_directive(file, spawn_line, 3, |d| matches!(d, Directive::Ignore))
                    .is_some()
                {
                    self.notes
                        .push(format!("ignored spawn in fn `{}`", self.units[u].name));
                    i = close + 1;
                    continue;
                }
                if let Some(name) = self.closure_site_key(file, closure.clone()) {
                    synthetics.push(Unit {
                        name: name.clone(),
                        decl_name: name,
                        file,
                        sig_line: spawn_line,
                        body: closure.clone(),
                        skip: Vec::new(),
                        entry: true,
                        synthetic: true,
                    });
                } else if let Some(target) = self.closure_named_target(file, closure.clone()) {
                    named_entries.insert(target);
                } else {
                    let parent = &self.units[u].name;
                    let name = format!("{parent}_spawn{}", synthetics.len());
                    self.notes.push(format!(
                        "spawn in fn `{parent}` has no site or named target; \
                         synthesized entry `{name}`"
                    ));
                    synthetics.push(Unit {
                        name: name.clone(),
                        decl_name: name,
                        file,
                        sig_line: spawn_line,
                        body: closure.clone(),
                        skip: Vec::new(),
                        entry: true,
                        synthetic: true,
                    });
                }
                i = close + 1;
            }
        }
        for u in &mut self.units {
            if named_entries.contains(&u.name) {
                u.entry = true;
            }
        }
        self.units.extend(synthetics);
    }

    /// First `.site("key")` local binding inside a closure body: its key
    /// names the synthetic entry.
    fn closure_site_key(&self, file: usize, range: std::ops::Range<usize>) -> Option<String> {
        let toks = self.tokens(file);
        for i in range.clone() {
            if toks[i].ident() == Some("site") {
                if let Some((key, _)) = site_call_key(toks, i) {
                    return Some(key);
                }
            }
        }
        None
    }

    /// First free/path call inside a closure resolving to a unique
    /// declared fn — the `spawn(move || worker_loop(..))` form.
    fn closure_named_target(&self, file: usize, range: std::ops::Range<usize>) -> Option<String> {
        let toks = self.tokens(file);
        for i in range.clone() {
            let Some(name) = toks[i].ident() else {
                continue;
            };
            if !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                continue;
            }
            if i > 0 && toks[i - 1].is_punct('.') {
                continue; // method call
            }
            if self.model.by_name.get(name).is_some_and(|c| c.len() == 1) {
                return Some(name.to_owned());
            }
        }
        None
    }

    /// Walks one unit's body, producing its ops and fires.
    fn walk_unit(&mut self, u: usize) -> UnitFacts {
        let file = self.units[u].file;
        let body = self.units[u].body.clone();
        let skip = self.units[u].skip.clone();
        let decl_name = self.units[u].decl_name.clone();
        let fn_default: Option<String> = if self.units[u].synthetic {
            None
        } else {
            match self.take_directive(file, self.units[u].sig_line, 3, |d| {
                matches!(d, Directive::Resource(_))
            }) {
                Some(Directive::Resource(r)) => Some(r),
                _ => None,
            }
        };

        let mut facts = UnitFacts::default();
        let mut local_sites: BTreeMap<String, String> = BTreeMap::new();
        let mut guard_sites: BTreeMap<String, String> = BTreeMap::new();
        let mut i = body.start;
        'walk: while i < body.end {
            for r in &skip {
                if r.contains(&i) {
                    i = r.end;
                    continue 'walk;
                }
            }
            let toks = self.tokens(file);
            let t = &toks[i];
            match &t.tok {
                Tok::Ident(_) if toks.get(i + 1).is_some_and(|t| t.is_punct('!')) => {
                    // Macro invocation: skip its delimited group.
                    if let Some(open) = (i + 2..(i + 3).min(toks.len())).next() {
                        if toks.get(open).is_some_and(|t| t.is_punct('(')) {
                            if let Some(close) = matching_paren(toks, open) {
                                i = close + 1;
                                continue 'walk;
                            }
                        } else if toks.get(open).is_some_and(|t| t.is_punct('[')) {
                            if let Some(close) = matching_square(toks, open) {
                                i = close + 1;
                                continue 'walk;
                            }
                        } else if toks.get(open).is_some_and(|t| t.is_punct('{')) {
                            if let Some(close) = matching_brace(toks, open) {
                                i = close + 1;
                                continue 'walk;
                            }
                        }
                    }
                }
                Tok::Ident(name) if toks.get(i + 1).is_some_and(|t| t.is_punct('(')) => {
                    let name = name.clone();
                    let next = self.handle_call(
                        u,
                        &decl_name,
                        &name,
                        i,
                        fn_default.as_deref(),
                        &mut local_sites,
                        &mut guard_sites,
                        &mut facts,
                    );
                    if let Some(next) = next {
                        i = next;
                        continue 'walk;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        facts
    }

    /// Handles one call site at token `i` (name followed by `(`).
    /// Returns `Some(next_index)` to jump, `None` to advance normally.
    #[allow(clippy::too_many_arguments)]
    fn handle_call(
        &mut self,
        unit: usize,
        decl_name: &str,
        name: &str,
        i: usize,
        fn_default: Option<&str>,
        local_sites: &mut BTreeMap<String, String>,
        guard_sites: &mut BTreeMap<String, String>,
        facts: &mut UnitFacts,
    ) -> Option<usize> {
        let file = self.units[unit].file;
        let toks = self.tokens(file);
        let line = toks[i].line;
        let open = i + 1;
        let close = matching_paren(toks, open)?;
        let is_method = i > 0 && toks[i - 1].is_punct('.');
        let chain = if is_method {
            receiver_chain(toks, i)
        } else {
            Vec::new()
        };

        // Hook-site bookkeeping first: sites and fires are instrumentation,
        // not operations.
        if name == "site" {
            if let Some((key, _)) = site_call_key(toks, i) {
                if let Some(Binding::Local(var)) = site_binding(toks, i) {
                    local_sites.insert(var, key);
                }
            }
            return None;
        }
        if name == "fire" && is_method {
            if let Some(owner) = chain.last() {
                let key = local_sites
                    .get(owner)
                    .or_else(|| self.field_sites.get(owner))
                    .cloned();
                if let Some(key) = key {
                    // `if let Some(mut g) = site.fire()` publishes through
                    // `g.field(..)` calls seen later in the walk; remember
                    // the binding. A bare `site.fire()` still marks the
                    // region.
                    if let Some(guard) = fire_guard_binding(toks, i) {
                        guard_sites.insert(guard, key.clone());
                    }
                    facts.fires.entry(key).or_default();
                } else {
                    self.notes.push(format!(
                        "unresolvable hook fire via `{owner}` in fn `{}`",
                        self.units[unit].name
                    ));
                }
            }
            return None;
        }
        if name == "field" && is_method {
            // `g.field("name", value)` (possibly chained) on a fire guard:
            // instrumentation, not an operation.
            if let Some(key) = chain.first().and_then(|g| guard_sites.get(g)).cloned() {
                if let Some(Tok::Str(s)) = toks.get(open + 1).map(|t| &t.tok) {
                    facts.fires.entry(key).or_default().insert(s.clone());
                }
                return None;
            }
        }

        // Annotation directives override everything at a call site.
        if self
            .take_directive(file, line, 2, |d| matches!(d, Directive::Ignore))
            .is_some()
        {
            return Some(close + 1);
        }
        if let Some(Directive::Vulnerable {
            name: ann_name,
            kind,
            resource,
        }) = self.take_directive(file, line, 2, |d| matches!(d, Directive::Vulnerable { .. }))
        {
            let annotated = kind.is_none();
            let op_name = ann_name.unwrap_or_else(|| name.to_owned());
            push_op(
                facts,
                Operation {
                    name: op_name,
                    kind: kind.unwrap_or(OpKind::Compute),
                    resource: resource
                        .or_else(|| fn_default.map(str::to_owned))
                        .map(|r| resource_family(&r).to_owned()),
                    annotated_vulnerable: annotated,
                },
            );
            return None;
        }

        // Rule-table classification.
        if let Some(rule) = classify_callee(name, &chain) {
            let resource = match rule.kind {
                OpKind::LockAcquire | OpKind::CondWait => fn_default
                    .map(str::to_owned)
                    .or_else(|| lock_resource(&chain)),
                OpKind::NetSend => self
                    .nth_arg_resource(file, open, close, 1)
                    .or_else(|| fn_default.map(str::to_owned)),
                _ => self
                    .first_arg_resource(file, open, close)
                    .or_else(|| fn_default.map(str::to_owned)),
            };
            push_op(
                facts,
                Operation {
                    name: name.to_owned(),
                    kind: rule.kind.clone(),
                    resource: resource.map(|r| resource_family(&r).to_owned()),
                    annotated_vulnerable: false,
                },
            );
            return None;
        }

        // Call-graph edge: unique-name resolution (ambiguity = skip; the
        // trait-method soundness limit documented in DESIGN.md §2).
        let candidates = self.model.by_name.get(name).cloned().unwrap_or_default();
        let resolved = if is_method {
            let others: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&c| {
                    self.model.fns[c].name == name && decl_name != name || {
                        // exclude only the caller's own decl
                        let d = &self.model.fns[c];
                        !(d.name == decl_name && d.file == self.units[unit].file)
                    }
                })
                .collect();
            (others.len() == 1).then(|| name.to_owned())
        } else {
            (candidates.len() == 1).then(|| name.to_owned())
        };
        if let Some(callee) = resolved {
            let already = facts.ops.iter().any(|o| match &o.kind {
                OpKind::Call { callee: c } => c == &callee,
                _ => false,
            });
            if !already {
                push_op(
                    facts,
                    Operation {
                        name: format!("call_{callee}"),
                        kind: OpKind::Call { callee },
                        resource: None,
                        annotated_vulnerable: false,
                    },
                );
            }
        } else if is_call(self.tokens(file), i) {
            push_op(
                facts,
                Operation {
                    name: format!("det:{name}"),
                    kind: OpKind::Compute,
                    resource: None,
                    annotated_vulnerable: false,
                },
            );
        }
        None
    }

    /// First string literal, else first const-resolving ident, anywhere in
    /// the argument group.
    fn first_arg_resource(&self, file: usize, open: usize, close: usize) -> Option<String> {
        let toks = self.tokens(file);
        for t in &toks[open + 1..close] {
            if let Tok::Str(s) = &t.tok {
                return Some(s.clone());
            }
        }
        for t in &toks[open + 1..close] {
            if let Some(id) = t.ident() {
                if let Some(v) = self.model.const_str(id) {
                    return Some(v.to_owned());
                }
            }
        }
        None
    }

    /// Resource from the `n`-th top-level argument (0-based): for
    /// `net.send(src, dst, payload)` the peer is argument 1.
    fn nth_arg_resource(&self, file: usize, open: usize, close: usize, n: usize) -> Option<String> {
        let toks = self.tokens(file);
        let arg = top_level_args(toks, open, close).into_iter().nth(n)?;
        toks[arg].iter().find_map(|t| match &t.tok {
            Tok::Str(s) => Some(s.clone()),
            _ => t
                .ident()
                .and_then(|id| self.model.const_str(id))
                .map(str::to_owned),
        })
    }

    /// Final assembly: walk units, resolve entries/reachability, rename
    /// entries to their context keys, and build the IR.
    fn assemble(mut self) -> ExtractedProgram {
        let mut facts: Vec<UnitFacts> = Vec::new();
        for u in 0..self.units.len() {
            let f = self.walk_unit(u);
            facts.push(f);
        }

        // Name -> unit index for edge resolution. Owned keys: the map
        // outlives renames of `self.units` below, and edges resolve against
        // declared names regardless. Resolution is caller-aware: a facade
        // delegating to a same-named store method (`DataNode::write_block`
        // -> `BlockStore::write_block`) resolves by excluding the caller,
        // then by preferring a candidate declared in the caller's file.
        let mut by_unit_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, u) in self.units.iter().enumerate() {
            by_unit_name.entry(u.name.clone()).or_default().push(i);
        }
        let unit_files: Vec<usize> = self.units.iter().map(|u| u.file).collect();
        let resolve_unit = move |caller: usize, name: &str| -> Option<usize> {
            let v = by_unit_name.get(name)?;
            let mut c: Vec<usize> = v.iter().copied().filter(|&i| i != caller).collect();
            if c.len() > 1 {
                c.retain(|&i| unit_files[i] == unit_files[caller]);
            }
            (c.len() == 1).then(|| c[0])
        };

        let facts_ref = &facts;
        let reach_from = |roots: &[usize]| -> BTreeSet<usize> {
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            let mut stack: Vec<usize> = roots.to_vec();
            while let Some(u) = stack.pop() {
                if !seen.insert(u) {
                    continue;
                }
                for op in &facts_ref[u].ops {
                    if let OpKind::Call { callee } = &op.kind {
                        if let Some(v) = resolve_unit(u, callee) {
                            stack.push(v);
                        }
                    }
                }
            }
            seen
        };

        let entries: Vec<usize> = (0..self.units.len())
            .filter(|&u| self.units[u].entry)
            .collect();
        let mut reachable = reach_from(&entries);
        // Promote unreachable firing functions: they publish into a hook
        // key, so they run (on caller threads) — e.g. a request-path
        // ingest function.
        let mut promoted = Vec::new();
        for (u, unit_facts) in facts.iter().enumerate() {
            if !reachable.contains(&u) && !unit_facts.fires.is_empty() {
                self.units[u].entry = true;
                promoted.push(u);
                self.notes.push(format!(
                    "promoted `{}` to entry: fires {:?} but is reachable from no spawn",
                    self.units[u].name,
                    unit_facts.fires.keys().collect::<Vec<_>>()
                ));
            }
        }
        if !promoted.is_empty() {
            let all: Vec<usize> = (0..self.units.len())
                .filter(|&u| self.units[u].entry)
                .collect();
            reachable = reach_from(&all);
        }

        // Rename each entry to its region's context key when unambiguous.
        let keep: Vec<usize> = (0..self.units.len())
            .filter(|&u| reachable.contains(&u))
            .collect();
        let entry_units: Vec<usize> = keep
            .iter()
            .copied()
            .filter(|&u| self.units[u].entry)
            .collect();
        for u in entry_units {
            let closure = reach_from(&[u]);
            let keys: BTreeSet<&String> = closure
                .iter()
                .flat_map(|&v| facts[v].fires.keys())
                .collect();
            if keys.len() == 1 {
                let key = (*keys.iter().next().unwrap()).clone();
                if key != self.units[u].name {
                    let taken =
                        self.units.iter().enumerate().any(|(v, other)| {
                            v != u && reachable.contains(&v) && other.name == key
                        });
                    if taken {
                        self.notes.push(format!(
                            "entry `{}` fires key `{key}` but that name is taken",
                            self.units[u].name
                        ));
                    } else {
                        self.units[u].name = key;
                    }
                }
            }
        }

        // Kept units can still collide on name (two reachable same-named
        // functions): suffix later ones so IR keys stay unique, then point
        // every resolved call edge at its callee's final name.
        let mut name_uses: BTreeMap<String, usize> = BTreeMap::new();
        for &u in &keep {
            let n = name_uses.entry(self.units[u].name.clone()).or_insert(0);
            *n += 1;
            if *n > 1 {
                let fresh = format!("{}_{}", self.units[u].name, *n);
                self.notes.push(format!(
                    "renamed duplicate function `{}` ({}) to `{fresh}`",
                    self.units[u].name, self.model.files[self.units[u].file].rel_path
                ));
                self.units[u].name = fresh;
            }
        }
        for &u in &keep {
            for op in &mut facts[u].ops {
                if let OpKind::Call { callee } = &mut op.kind {
                    if let Some(v) = resolve_unit(u, callee) {
                        if self.units[v].name != *callee {
                            *callee = self.units[v].name.clone();
                        }
                    }
                }
            }
        }

        let mut ir_functions: BTreeMap<String, Function> = BTreeMap::new();
        let mut regions_fired: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for &u in &keep {
            let unit = &self.units[u];
            for (key, fields) in &facts[u].fires {
                regions_fired
                    .entry(key.clone())
                    .or_default()
                    .extend(fields.iter().cloned());
            }
            ir_functions.insert(
                unit.name.clone(),
                Function {
                    name: unit.name.clone(),
                    ops: facts[u].ops.clone(),
                    long_running: unit.entry,
                },
            );
        }

        ExtractedProgram {
            ir: ProgramIr {
                name: self.program,
                functions: ir_functions,
                regions_fired,
            },
            notes: self.notes,
        }
    }
}

/// Appends `op`, naming it by ordinal: the second and later op of one
/// name in a function take `_2`, `_3`, … in source order.
fn push_op(facts: &mut UnitFacts, mut op: Operation) {
    if facts.ops.iter().any(|o| o.name == op.name) {
        let mut k = 2;
        while facts
            .ops
            .iter()
            .any(|o| o.name == format!("{}_{k}", op.name))
        {
            k += 1;
        }
        op.name = format!("{}_{k}", op.name);
    }
    facts.ops.push(op);
}

/// Rust keywords that can stand before a `(` without calling anything.
const NOT_CALLS: &[&str] = &[
    "as", "crate", "else", "fn", "for", "if", "impl", "in", "let", "match", "move", "mut", "pub",
    "ref", "return", "self", "super", "unsafe", "where", "while",
];

/// True if the ident at `i`, followed by `(`, calls code: not a keyword,
/// not a declaration (`fn name(`), and not a tuple-struct or enum-variant
/// constructor (`Some(..)`, `Ok(..)`: capitalized by Rust convention).
fn is_call(tokens: &[Token], i: usize) -> bool {
    let Some(name) = tokens[i].ident() else {
        return false;
    };
    let declared = i > 0 && tokens[i - 1].ident() == Some("fn");
    !(declared || NOT_CALLS.contains(&name) || name.starts_with(|c: char| c.is_ascii_uppercase()))
}

/// Token ranges of the depth-0, comma-separated arguments between the
/// parens at `open` and `close`.
fn top_level_args(tokens: &[Token], open: usize, close: usize) -> Vec<std::ops::Range<usize>> {
    let mut args = Vec::new();
    let mut depth = 0usize;
    let mut start = open + 1;
    for (j, t) in tokens.iter().enumerate().take(close).skip(open + 1) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_punct(',') {
            args.push(start..j);
            start = j + 1;
        }
    }
    if start < close {
        args.push(start..close);
    }
    args
}

fn matching_square(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// For a method call at `i` (`recv . name (`), collects the dotted
/// receiver chain, skipping call parens: `shared.wal.lock().append(..)`
/// gives `["shared", "wal", "lock"]` for `append`.
fn receiver_chain(tokens: &[Token], i: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut j = i as isize - 1; // the '.'
    while j > 0 && tokens[j as usize].is_punct('.') {
        let mut k = j - 1;
        // Skip a call's argument group: `.lock()` in mid-chain.
        if k >= 0 && tokens[k as usize].is_punct(')') {
            let mut depth = 0isize;
            while k >= 0 {
                if tokens[k as usize].is_punct(')') {
                    depth += 1;
                } else if tokens[k as usize].is_punct('(') {
                    depth -= 1;
                    if depth == 0 {
                        k -= 1;
                        break;
                    }
                }
                k -= 1;
            }
        }
        match tokens.get(k as usize).map(|t| &t.tok) {
            Some(Tok::Ident(name)) => {
                chain.push(name.clone());
                j = k - 1;
            }
            _ => break,
        }
    }
    chain.reverse();
    chain
}

/// Chain-derived lock resource: strip `self`-like heads, join the rest.
fn lock_resource(chain: &[String]) -> Option<String> {
    let segs: Vec<&str> = chain
        .iter()
        .map(String::as_str)
        .filter(|s| !matches!(*s, "self" | "s" | "shared" | "this"))
        .collect();
    if segs.is_empty() {
        None
    } else {
        Some(segs.join("."))
    }
}

/// At an ident `site` at `i`, matches `site ( "key" )` and returns the key
/// and the close paren index.
fn site_call_key(tokens: &[Token], i: usize) -> Option<(String, usize)> {
    if !tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let close = matching_paren(tokens, i + 1)?;
    match tokens.get(i + 2).map(|t| &t.tok) {
        Some(Tok::Str(key)) => Some((key.clone(), close)),
        _ => None,
    }
}

/// How a `.site("key")` result is bound.
enum Binding {
    /// `let name = ...site("key")`
    Local(String),
    /// `name: ...site("key")` in a struct literal
    Field(String),
}

fn site_binding(tokens: &[Token], site_idx: usize) -> Option<Binding> {
    // Walk back over the receiver chain to the expression start.
    let mut j = site_idx as isize - 1;
    while j > 0
        && tokens[j as usize].is_punct('.')
        && matches!(
            tokens.get(j as usize - 1).map(|t| &t.tok),
            Some(Tok::Ident(_))
        )
    {
        j -= 2;
    }
    let before = tokens.get(j as usize)?;
    if before.is_punct('=') {
        let name = tokens.get(j as usize - 1)?.ident()?;
        if tokens.get(j as usize - 2)?.ident() == Some("let") {
            return Some(Binding::Local(name.to_owned()));
        }
    }
    if before.is_punct(':') {
        let name = tokens.get(j as usize - 1)?.ident()?;
        return Some(Binding::Field(name.to_owned()));
    }
    None
}

/// At a method ident `fire` at `fire_idx`, matches the zero-alloc guard
/// idiom `if let Some(mut NAME) = <receiver>.fire()` (the `mut` is
/// optional) and returns the guard binding `NAME`.
fn fire_guard_binding(tokens: &[Token], fire_idx: usize) -> Option<String> {
    // Walk back over the dotted receiver chain to the expression start.
    let mut j = fire_idx.checked_sub(1)?;
    while j >= 2
        && tokens[j].is_punct('.')
        && matches!(tokens.get(j - 1).map(|t| &t.tok), Some(Tok::Ident(_)))
    {
        j -= 2;
    }
    // Expect `Some ( [mut] NAME ) =` right before the receiver.
    if !tokens.get(j)?.is_punct('=') || !tokens.get(j.checked_sub(1)?)?.is_punct(')') {
        return None;
    }
    let name = tokens.get(j.checked_sub(2)?)?.ident()?.to_owned();
    let mut k = j.checked_sub(3)?;
    if tokens.get(k)?.ident() == Some("mut") {
        k = k.checked_sub(1)?;
    }
    if !tokens.get(k)?.is_punct('(') || tokens.get(k.checked_sub(1)?)?.ident() != Some("Some") {
        return None;
    }
    Some(name)
}

/// Finds the closure body range inside a call argument group, if the call
/// takes a closure: past `move`/`|params|`, either the braced block or the
/// rest of the group.
fn closure_body(tokens: &[Token], open: usize, close: usize) -> Option<std::ops::Range<usize>> {
    // The thunk need not be the first argument (`spawn(move || ..)` vs
    // `spawn_on(&clock, "name", move || ..)`): scan the argument group for
    // the first `|` that opens a closure. Leading non-closure arguments
    // never contain `|` in this codebase (receivers, string labels).
    let mut j = open + 1;
    while j < close && !tokens[j].is_punct('|') {
        j += 1;
    }
    if j >= close {
        return None;
    }
    // Closure params end at the next `|` (params are plain idents here).
    let mut k = j + 1;
    while k < close && !tokens[k].is_punct('|') {
        k += 1;
    }
    let body_start = k + 1;
    if tokens.get(body_start).is_some_and(|t| t.is_punct('{')) {
        let end = matching_brace(tokens, body_start)?;
        Some(body_start + 1..end)
    } else {
        Some(body_start..close)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extract(srcs: &[(&str, &str)]) -> ExtractedProgram {
        let files = srcs
            .iter()
            .map(|(name, src)| SourceFile::parse(format!("src/{name}"), src, false))
            .collect();
        extract_model("test", CrateModel::build(files))
    }

    /// `f`'s ops other than deterministic calls.
    fn classified(f: &Function) -> Vec<&Operation> {
        f.ops.iter().filter(|o| o.kind != OpKind::Compute).collect()
    }

    const WORKER: &str = r#"
pub fn start(shared: Arc<Shared>) {
    threads.push(std::thread::Builder::new()
        .name("worker".into())
        .spawn(move || worker_loop(shared))
        .unwrap());
}

pub fn worker_loop(shared: Arc<Shared>) {
    let hook = shared.hooks.site("main_loop");
    while shared.running() {
        if let Some(mut fire) = hook.fire() {
            fire.field("payload", CtxValue::Bytes(b));
        }
        shared.disk.append("wal/log", &frame);
        shared.disk.fsync("wal/log");
        helper(&shared);
    }
}

fn helper(shared: &Shared) {
    let _g = shared.state.lock();
}
"#;

    #[test]
    fn extracts_entry_ops_and_edges() {
        let ex = extract(&[("worker.rs", WORKER)]);
        // worker_loop fires main_loop and is the only firing entry -> renamed.
        let f = ex.ir.function("main_loop").expect("renamed entry");
        assert!(f.long_running);
        // `shared.running()` resolves to no fn: deterministic code.
        assert_eq!(f.ops[0].name, "det:running");
        assert_eq!(f.ops[0].kind, OpKind::Compute);
        let ops = classified(f);
        let kinds: Vec<&str> = ops.iter().map(|o| o.kind.label()).collect();
        assert_eq!(kinds, vec!["disk-write", "disk-sync", "call"]);
        assert_eq!(ops[0].resource.as_deref(), Some("wal/"));
        let h = ex.ir.function("helper").unwrap();
        assert_eq!(h.ops[0].kind.label(), "lock-acquire");
        assert_eq!(h.ops[0].resource.as_deref(), Some("state"));
        // start itself is not an entry and unreachable -> dropped.
        assert!(ex.ir.function("start").is_none());
        assert!(ex.ir.dangling_callees().is_empty());
    }

    #[test]
    fn fires_are_recorded_per_key() {
        let ex = extract(&[("worker.rs", WORKER)]);
        let fields = ex.ir.regions_fired.get("main_loop").unwrap();
        assert_eq!(fields.iter().collect::<Vec<_>>(), ["payload"]);
    }

    #[test]
    fn repeated_callees_take_ordinals_in_source_order() {
        let ex = extract(&[(
            "a.rs",
            r#"
pub fn start() { t.spawn(move || drain(s)).unwrap(); }
pub fn drain(s: Shared) {
    let site = hooks.site("drain");
    loop {
        s.disk.append("wal/a", &x);
        s.disk.fsync("wal/a");
        s.disk.append("wal/b", &y);
        s.disk.append("wal/c", &z);
    }
}
"#,
        )]);
        let names: Vec<&str> = ex
            .ir
            .function("drain")
            .unwrap()
            .ops
            .iter()
            .map(|o| o.name.as_str())
            .collect();
        assert_eq!(names, vec!["append", "fsync", "append_2", "append_3"]);
    }

    #[test]
    fn channel_sends_and_rwlock_reads_are_deterministic_code() {
        let ex = extract(&[(
            "a.rs",
            r#"
pub fn start() { t.spawn(move || drain(rx)).unwrap(); }
pub fn drain(rx: Receiver<u64>) {
    let site = hooks.site("drain");
    loop {
        let v = rx.recv_timeout(WAIT);
        tx.send(v);
        let map = self.nodes.read();
    }
}
"#,
        )]);
        let f = ex.ir.function("drain").unwrap();
        let names: Vec<&str> = f.ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["det:recv_timeout", "det:send", "det:read"]);
        assert!(classified(f).is_empty(), "{:?}", f.ops);
    }

    #[test]
    fn deterministic_calls_take_ordinals_of_their_own() {
        let ex = extract(&[(
            "a.rs",
            r#"
pub fn start() { t.spawn(move || drain(s)).unwrap(); }
pub fn drain(s: Shared) {
    let (a, b) = split(s);
    if let Some(x) = tx.send(a) { s.net.send(&s.id, "peer", x); }
    tx.send(b);
}
"#,
        )]);
        let names: Vec<&str> = ex
            .ir
            .function("drain")
            .unwrap()
            .ops
            .iter()
            .map(|o| o.name.as_str())
            .collect();
        // `let (`, `Some(` and `fn drain(` call nothing; the channel sends
        // count apart from the network send, whose id stays `send`.
        assert_eq!(names, ["det:split", "det:send", "send", "det:send_2"]);
    }

    #[test]
    fn vulnerable_annotation_creates_custom_op() {
        let ex = extract(&[(
            "a.rs",
            r#"
pub fn start() { t.spawn(move || serve(s)).unwrap(); }
pub fn serve(s: Shared) {
    loop {
        // wdog: vulnerable name=index_put resource=index
        s.index.put(key, value);
    }
}
"#,
        )]);
        let op = &ex.ir.function("serve").unwrap().ops[0];
        assert_eq!(op.name, "index_put");
        assert!(op.annotated_vulnerable);
        assert_eq!(op.resource.as_deref(), Some("index"));
    }

    #[test]
    fn vulnerable_annotation_with_kind_is_not_custom() {
        let ex = extract(&[(
            "a.rs",
            r#"
pub fn start() { t.spawn(move || serve(s)).unwrap(); }
pub fn serve(sink: &mut dyn Sink) {
    // wdog: vulnerable name=write_record kind=net-send resource=sync-target
    sink.write_record(&path, data);
}
"#,
        )]);
        let op = &ex.ir.function("serve").unwrap().ops[0];
        assert_eq!(op.kind, OpKind::NetSend);
        assert!(!op.annotated_vulnerable);
        assert_eq!(op.resource.as_deref(), Some("sync-target"));
    }

    #[test]
    fn fn_level_resource_annotation_applies() {
        let ex = extract(&[(
            "a.rs",
            r#"
pub fn start() { t.spawn(move || run(s)).unwrap(); }
pub fn run(s: Shared) { persist(&s, "x"); }
// wdog: resource sst/
pub fn persist(s: &Shared, path: &str) {
    s.disk.write_all(path, &buf);
    s.disk.fsync(path);
}
"#,
        )]);
        let f = ex.ir.function("persist").unwrap();
        assert_eq!(f.ops[0].resource.as_deref(), Some("sst/"));
        assert_eq!(f.ops[1].resource.as_deref(), Some("sst/"));
    }

    #[test]
    fn const_resolution_and_net_second_arg() {
        let ex = extract(&[(
            "a.rs",
            r#"
pub const PEER: &str = "nn-1";
pub fn start() { t.spawn(move || beat(s)).unwrap(); }
pub fn beat(s: Shared) {
    loop { s.net.send(&s.id, PEER, msg.encode()); }
}
"#,
        )]);
        let op = &ex.ir.function("beat").unwrap().ops[0];
        assert_eq!(op.kind, OpKind::NetSend);
        assert_eq!(op.resource.as_deref(), Some("nn-1"));
    }

    #[test]
    fn ignore_directive_hides_a_spawn() {
        let ex = extract(&[(
            "a.rs",
            r#"
pub fn start(s: Shared) {
    t.spawn(move || {
        let hook = s.hooks.site("heartbeat_loop");
        loop { s.net.send(&s.id, "nn", m.encode()); }
    }).unwrap();
    // wdog: ignore
    t.spawn(move || {
        loop { s.net.send("a", "b", pong.clone()); }
    }).unwrap();
}
"#,
        )]);
        let f = ex.ir.function("heartbeat_loop").expect("site-named entry");
        assert!(f.long_running);
        assert_eq!(f.ops[0].kind, OpKind::NetSend);
        assert_eq!(f.ops[0].resource.as_deref(), Some("nn"));
        assert_eq!(ex.ir.functions.len(), 1, "{:?}", ex.ir.functions.keys());
        assert_eq!(ex.notes, ["ignored spawn in fn `start`"]);
    }

    #[test]
    fn inline_closure_with_site_becomes_named_entry() {
        let ex = extract(&[(
            "a.rs",
            r#"
pub fn start(s: Shared) {
    t.spawn(move || {
        let hook = s.hooks.site("scanner_loop");
        for path in s.store.blocks() {
            if let Some(mut fire) = hook.fire() {
                fire.field("block_path", CtxValue::Str(p));
            }
            s.disk.read(&path);
        }
    }).unwrap();
}
"#,
        )]);
        let f = ex.ir.function("scanner_loop").unwrap();
        assert!(f.long_running);
        let ops = classified(f);
        assert_eq!(ops[0].kind, OpKind::DiskRead);
        assert!(ex.ir.regions_fired["scanner_loop"].contains("block_path"));
    }

    #[test]
    fn field_site_fire_promotes_caller_to_entry() {
        let ex = extract(&[(
            "a.rs",
            r#"
pub fn init(hooks: &Hooks) -> Shared {
    Shared { ingest_hook: hooks.site("ingest_loop"), n: 0 }
}
pub fn write_block(s: &Shared, data: &[u8]) {
    if let Some(mut fire) = s.ingest_hook.fire() {
        fire.field("block_data", CtxValue::Bytes(d));
    }
    s.store.put_block(data);
}
// wdog: resource blocks/
pub fn put_block(s: &Store, data: &[u8]) {
    s.disk.write_all(&path, data);
}
"#,
        )]);
        // write_block fires ingest_loop, reachable from no spawn -> entry,
        // renamed to the key.
        let f = ex.ir.function("ingest_loop").expect("promoted entry");
        assert!(f.long_running);
        assert_eq!(f.callees(), vec!["put_block"]);
        assert_eq!(
            ex.ir.function("put_block").unwrap().ops[0]
                .resource
                .as_deref(),
            Some("blocks/")
        );
        assert!(ex.ir.function("init").is_none(), "init stays out");
    }

    #[test]
    fn guard_fire_publishes_chained_fields() {
        let ex = extract(&[(
            "a.rs",
            r#"
pub fn start() { t.spawn(move || serve(s)).unwrap(); }
pub fn serve(s: Shared) {
    let hook = s.hooks.site("listener_loop");
    loop {
        if let Some(mut fire) = hook.fire() {
            fire.field("probe_key", CtxValue::Str(key))
                .field("probe_val", CtxValue::Str(value));
        }
        s.disk.append("wal/log", &frame);
    }
}
"#,
        )]);
        let fields = ex.ir.regions_fired.get("listener_loop").unwrap();
        assert!(fields.contains("probe_key") && fields.contains("probe_val"));
        // Guard `field` calls are instrumentation, not ops or call edges.
        let f = ex.ir.function("listener_loop").unwrap();
        assert_eq!(f.ops.len(), 1, "{:?}", f.ops);
    }

    #[test]
    fn guard_fire_on_struct_field_site_resolves() {
        let ex = extract(&[(
            "a.rs",
            r#"
pub fn init(hooks: &Hooks) -> Shared {
    Shared { ingest_hook: hooks.site("ingest_loop"), n: 0 }
}
pub fn write_block(s: &Shared, data: &[u8]) {
    if let Some(mut fire) = s.ingest_hook.fire() {
        fire.field("block_data", CtxValue::Bytes(d));
    }
    s.disk.write_all("blocks/b1", data);
}
"#,
        )]);
        let f = ex.ir.function("ingest_loop").expect("promoted entry");
        assert!(f.long_running);
        assert!(ex.ir.regions_fired["ingest_loop"].contains("block_data"));
    }

    #[test]
    fn bare_guardless_fire_still_marks_the_region() {
        let ex = extract(&[(
            "a.rs",
            r#"
pub fn start() { t.spawn(move || tick(s)).unwrap(); }
pub fn tick(s: Shared) {
    let hook = s.hooks.site("tick_loop");
    loop { hook.fire(); s.disk.fsync("wal/log"); }
}
"#,
        )]);
        assert!(ex.ir.regions_fired["tick_loop"].is_empty());
    }

    #[test]
    fn ambiguous_methods_do_not_resolve() {
        let ex = extract(&[(
            "a.rs",
            r#"
pub fn start() { t.spawn(move || run(s)).unwrap(); }
pub fn run(s: Shared) { s.sink.emit(&x); }
impl A { fn emit(&self, x: &X) { self.disk.write_all("a/f", x); } }
impl B { fn emit(&self, x: &X) { self.net.send("s", "d", x); } }
"#,
        )]);
        let f = ex.ir.function("run").unwrap();
        assert!(
            classified(f).is_empty(),
            "trait-ish dispatch must not resolve"
        );
        assert_eq!(f.ops[0].name, "det:emit");
    }

    #[test]
    fn macro_arguments_are_invisible() {
        let ex = extract(&[(
            "a.rs",
            r#"
pub fn start() { t.spawn(move || run(s)).unwrap(); }
pub fn run(s: Shared) {
    debug_assert!(s.tab.lock().is_sorted());
    s.wal.lock();
}
"#,
        )]);
        let f = ex.ir.function("run").unwrap();
        assert_eq!(f.ops.len(), 1, "{:?}", f.ops);
        assert_eq!(f.ops[0].resource.as_deref(), Some("wal"));
    }

    #[test]
    fn loop_headers_are_not_calls() {
        let ex = extract(&[(
            "a.rs",
            r#"
pub fn start() { t.spawn(move || run(s)).unwrap(); }
pub fn run(s: Shared) {
    for (k, v) in s.pending() {
        while (s.ready()) { s.disk.fsync("wal/log"); }
    }
}
"#,
        )]);
        let names: Vec<&str> = ex
            .ir
            .function("run")
            .unwrap()
            .ops
            .iter()
            .map(|o| o.name.as_str())
            .collect();
        assert_eq!(names, ["det:pending", "det:ready", "fsync"]);
    }
}
