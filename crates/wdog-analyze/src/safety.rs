//! Checker-safety lint: prove every probe body is read-only or
//! replica-isolated (the paper's §3.2 isolation requirement, checked
//! mechanically instead of by convention).
//!
//! A watchdog checker runs *inside* the monitored process; if its probe
//! mutates shared state it can corrupt the very system it guards. The
//! target crates follow a convention: every mutation a probe performs is
//! confined to **probe-tagged** state — paths/keys/frames carrying the
//! `__wd` marker (or a const whose value carries it), or the dedicated
//! `WdProbe` wire variant that peers ignore. This pass makes the
//! convention checkable:
//!
//! * probe bodies are discovered lexically in each target's `wd.rs` and
//!   `recover.rs` (the argument lists of `table.bind("resource", ..)`
//!   calls, whether they pass a template or an inline body, and the
//!   closures of `probe_checker("id", .., move || {..})` and
//!   `Verifier::new("id", move || {..})` calls) plus the `check` methods
//!   of configured hand-written checker files;
//! * every *mutating* call in a body (a known I/O or state-mutation
//!   method, or a template constructor that writes or sends) must have a
//!   probe-tagged argument: a `__wd` string, a const resolving to one, the
//!   `WdProbe` variant, or a local whose initializer is tagged. Bare calls
//!   to local helper functions are followed one level
//!   (`helper(&disk, PROBE_PATH, ..)`);
//! * the class is then `read-only` (no mutations), `replica-write`
//!   (every mutation tagged), or `shared-mutation` — which makes
//!   `wdog-lint` exit 1.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::lexer::Token;
use crate::model::{matching_paren, CrateModel};

/// The probe-isolation marker every tagged resource carries.
pub const PROBE_MARKER: &str = "__wd";

/// Methods treated as mutations of shared state when untagged, and the
/// `wdog_target::templates` constructors whose bodies write or send.
const MUTATORS: &[&str] = &[
    "append",
    "append_log",
    "append_record",
    "create",
    "del",
    "delete",
    "framed_files",
    "fsync",
    "insert",
    "link",
    "mkdir",
    "put",
    "remove",
    "remove_path",
    "rename",
    "send",
    "set",
    "set_data",
    "truncate",
    "write",
    "write_all",
    "write_record",
];

/// Hand-written checker files (beyond `wd.rs`) whose `check` methods are
/// probe bodies too.
fn checker_files(target: &str) -> &'static [&'static str] {
    match target {
        "miniblock" => &["disk_checker.rs"],
        _ => &[],
    }
}

/// Safety class of one probe body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SafetyClass {
    /// The body performs no recognized mutation.
    ReadOnly,
    /// Every mutation is probe-tagged.
    ReplicaWrite,
    /// At least one mutation reaches shared, untagged state.
    SharedMutation,
}

impl SafetyClass {
    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            SafetyClass::ReadOnly => "read-only",
            SafetyClass::ReplicaWrite => "replica-write",
            SafetyClass::SharedMutation => "shared-mutation",
        }
    }
}

/// One mutating call inside a probe body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MutationSite {
    /// The mutating method or helper name.
    pub method: String,
    /// Whether a probe tag was found for this call.
    pub tagged: bool,
}

/// One classified probe body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeSafety {
    /// Probe id: the registered `fn#op` / checker id, or
    /// `{file_stem}::{function}` when the id is not a literal (the second
    /// and later such id of one function take `_2`, `_3`, … in source
    /// order).
    pub id: String,
    /// Workspace-relative file.
    pub file: String,
    /// The function that registers the probe (for a checker's `check`
    /// method, `check` itself).
    pub function: String,
    /// The derived class.
    pub class: SafetyClass,
    /// Every mutating call found.
    pub mutations: Vec<MutationSite>,
}

/// The checker-safety report for one target.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SafetyReport {
    /// Program name.
    pub program: String,
    /// Every probe body, in source order per file (files sorted by path).
    pub probes: Vec<ProbeSafety>,
    /// Notes (e.g. files scanned).
    pub info: Vec<String>,
}

impl SafetyReport {
    /// Probes classified as shared-mutation.
    pub fn violations(&self) -> Vec<&ProbeSafety> {
        self.probes
            .iter()
            .filter(|p| p.class == SafetyClass::SharedMutation)
            .collect()
    }
}

/// What one level of helper-function analysis needs to know.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HelperSummary {
    /// The helper (transitively) performs mutations.
    has_mutations: bool,
    /// ... and every one of them is tagged standalone.
    all_tagged: bool,
}

struct Scanner<'a> {
    model: &'a CrateModel,
    /// Const names whose string value carries the probe marker.
    probe_consts: Vec<&'a str>,
    helper_memo: BTreeMap<String, HelperSummary>,
}

impl<'a> Scanner<'a> {
    fn new(model: &'a CrateModel) -> Self {
        let probe_consts = model
            .consts
            .iter()
            .filter(|(_, v)| v.contains(PROBE_MARKER))
            .map(|(k, _)| k.as_str())
            .collect();
        Self {
            model,
            probe_consts,
            helper_memo: BTreeMap::new(),
        }
    }

    /// True if one token is probe-tagged on its own (given tagged locals).
    fn token_tagged(&self, t: &Token, locals: &BTreeMap<String, bool>) -> bool {
        match &t.tok {
            crate::lexer::Tok::Str(s) => {
                s.contains(PROBE_MARKER) || self.probe_consts.iter().any(|c| s.contains(c))
            }
            crate::lexer::Tok::Ident(id) => {
                id == "WdProbe"
                    || self.probe_consts.contains(&id.as_str())
                    || locals.get(id).copied().unwrap_or(false)
            }
            _ => false,
        }
    }

    fn any_tagged(&self, tokens: &[Token], locals: &BTreeMap<String, bool>) -> bool {
        tokens.iter().any(|t| self.token_tagged(t, locals))
    }

    /// Classifies the helper function `name` standalone (parameters count
    /// as untagged), memoized and cycle-guarded.
    fn helper_summary(&mut self, name: &str) -> HelperSummary {
        if let Some(s) = self.helper_memo.get(name) {
            return *s;
        }
        // Cycle guard: assume clean while analyzing; a recursive helper
        // converges to whatever its straight-line body says.
        self.helper_memo.insert(
            name.to_owned(),
            HelperSummary {
                has_mutations: false,
                all_tagged: true,
            },
        );
        let Some(indices) = self.model.by_name.get(name) else {
            return self.helper_memo[name];
        };
        if indices.len() != 1 {
            // Ambiguous helper: leave the conservative default (no
            // mutations assumed — ambiguity is reported at call sites
            // only via the mutator name list).
            return self.helper_memo[name];
        }
        let decl = self.model.fns[indices[0]].clone();
        let tokens = &self.model.files[decl.file].tokens;
        let sites = self.scan_body(tokens, decl.body.clone(), &BTreeMap::new());
        let summary = HelperSummary {
            has_mutations: !sites.is_empty(),
            all_tagged: sites.iter().all(|s| s.tagged),
        };
        self.helper_memo.insert(name.to_owned(), summary);
        summary
    }

    /// Finds every mutation site in a token range.
    fn scan_body(
        &mut self,
        tokens: &[Token],
        body: std::ops::Range<usize>,
        outer_locals: &BTreeMap<String, bool>,
    ) -> Vec<MutationSite> {
        let mut locals = outer_locals.clone();
        let mut sites = Vec::new();
        let mut i = body.start;
        while i < body.end {
            let t = &tokens[i];
            // Track `let [mut] name = <init> ;` and tag the local if its
            // initializer carries a probe tag.
            if t.ident() == Some("let") {
                let mut j = i + 1;
                if tokens.get(j).and_then(Token::ident) == Some("mut") {
                    j += 1;
                }
                if let Some(name) = tokens.get(j).and_then(Token::ident) {
                    let init_start = j + 1;
                    let mut k = init_start;
                    while k < body.end && !tokens[k].is_punct(';') {
                        k += 1;
                    }
                    let tagged = self.any_tagged(&tokens[init_start..k.min(body.end)], &locals);
                    if tagged {
                        locals.insert(name.to_owned(), true);
                    }
                }
                i += 1;
                continue;
            }
            let Some(name) = t.ident() else {
                i += 1;
                continue;
            };
            let is_call = tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
            if !is_call {
                i += 1;
                continue;
            }
            let method_call = i > 0 && tokens[i - 1].is_punct('.');
            // `self.helper(..)` counts as a bare helper call; any other
            // receiver is judged by the mutator name list alone.
            let self_method = method_call
                && i >= 2
                && tokens[i - 2].ident() == Some("self")
                && !(i >= 3 && tokens[i - 3].is_punct('.'));
            let bare_call = !method_call || self_method;

            let close = matching_paren(tokens, i + 1).unwrap_or(body.end.min(tokens.len() - 1));
            let args = &tokens[i + 2..close.min(body.end)];

            if MUTATORS.contains(&name) {
                sites.push(MutationSite {
                    method: name.to_owned(),
                    tagged: self.any_tagged(args, &locals),
                });
            } else if bare_call {
                let name = name.to_owned();
                let summary = self.helper_summary(&name);
                if summary.has_mutations {
                    let tagged = summary.all_tagged || self.any_tagged(args, &locals);
                    sites.push(MutationSite {
                        method: name,
                        tagged,
                    });
                }
            }
            i += 1;
        }
        sites
    }
}

/// A discovered probe body awaiting classification.
struct ProbeUnit {
    /// The literal id, when the source spells one.
    literal_id: Option<String>,
    file: usize,
    function: String,
    /// Token index of the registration: the source order of the probe.
    start: usize,
    body: std::ops::Range<usize>,
}

/// The innermost function of `model` whose body holds token `at` of
/// file `file`.
fn enclosing_fn(model: &CrateModel, file: usize, at: usize) -> Option<&str> {
    model
        .fns
        .iter()
        .filter(|f| f.file == file && f.body.contains(&at))
        .max_by_key(|f| f.body.start)
        .map(|f| f.name.as_str())
}

/// Finds `table.bind("resource", ..)` argument lists and the closures of
/// `probe_checker("id", .., move || { .. })` and
/// `Verifier::new("id", move || { .. })` calls in file `file_idx` of
/// `model`.
fn find_closure_units(model: &CrateModel, file_idx: usize, units: &mut Vec<ProbeUnit>) {
    let tokens = &model.files[file_idx].tokens;
    let mut i = 0usize;
    while i < tokens.len() {
        // The token that opens the call's argument list.
        let open = match tokens[i].ident() {
            Some("bind") if i > 0 && tokens[i - 1].is_punct('.') => i + 1,
            Some("probe_checker") => i + 1,
            Some("Verifier")
                if tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(i + 3).and_then(Token::ident) == Some("new") =>
            {
                i + 4
            }
            _ => {
                i += 1;
                continue;
            }
        };
        let is_bind = tokens[i].ident() == Some("bind");
        if !tokens.get(open).is_some_and(|t| t.is_punct('(')) {
            i += 1;
            continue;
        }
        let Some(close) = matching_paren(tokens, open) else {
            i += 1;
            continue;
        };
        // The probe id: the first string argument; otherwise one is
        // synthesized from the enclosing function once all are found.
        let literal_id = match &tokens[open + 1].tok {
            crate::lexer::Tok::Str(s) => Some(s.clone()),
            _ => None,
        };
        // The probe body: a bind's whole argument list, else the closure
        // argument, from its first `|` to the end of the call.
        let body = if is_bind {
            Some((open + 1)..close)
        } else {
            (open + 1..close)
                .find(|&j| tokens[j].is_punct('|'))
                .map(|j| j..close)
        };
        if let Some(body) = body {
            let function = enclosing_fn(model, file_idx, i).unwrap_or_default();
            units.push(ProbeUnit {
                literal_id,
                file: file_idx,
                function: function.to_owned(),
                start: i,
                body,
            });
        }
        i = close + 1;
    }
}

/// Classifies every probe body of the crate in `model` (which must be
/// built *without* excluding the checker files).
pub fn analyze_safety_model(program: &str, model: &CrateModel) -> SafetyReport {
    let mut units = Vec::new();
    for (idx, file) in model.files.iter().enumerate() {
        let fname = file.rel_path.rsplit('/').next().unwrap_or(&file.rel_path);
        if fname == "wd.rs" || fname == "recover.rs" {
            find_closure_units(model, idx, &mut units);
        }
        if checker_files(program).contains(&fname) {
            for decl in model.fns.iter().filter(|f| f.file == idx) {
                if decl.name == "check" {
                    units.push(ProbeUnit {
                        literal_id: None,
                        file: idx,
                        function: decl.name.clone(),
                        start: decl.body.start,
                        body: decl.body.clone(),
                    });
                }
            }
        }
    }
    units.sort_by(|a, b| {
        (&model.files[a.file].rel_path, a.start).cmp(&(&model.files[b.file].rel_path, b.start))
    });

    let mut scanner = Scanner::new(model);
    let mut probes: Vec<ProbeSafety> = Vec::new();
    for unit in units {
        let file = &model.files[unit.file];
        let id = unit.literal_id.unwrap_or_else(|| {
            let stem = file.rel_path.rsplit('/').next().unwrap_or(&file.rel_path);
            let base = format!("{}::{}", stem.trim_end_matches(".rs"), unit.function);
            let taken = |id: &str| probes.iter().any(|p| p.id == id);
            let mut id = base.clone();
            let mut k = 2;
            while taken(&id) {
                id = format!("{base}_{k}");
                k += 1;
            }
            id
        });
        let tokens = &file.tokens;
        let mutations = scanner.scan_body(tokens, unit.body.clone(), &BTreeMap::new());
        let class = if mutations.is_empty() {
            SafetyClass::ReadOnly
        } else if mutations.iter().all(|m| m.tagged) {
            SafetyClass::ReplicaWrite
        } else {
            SafetyClass::SharedMutation
        };
        probes.push(ProbeSafety {
            id,
            file: file.rel_path.clone(),
            function: unit.function,
            class,
            mutations,
        });
    }

    let mut info = vec![format!(
        "{} probe bodies scanned; {} probe-marker consts in scope",
        probes.len(),
        scanner.probe_consts.len()
    )];
    if probes.is_empty() {
        info.push("no probe bodies found — is wd.rs present?".to_owned());
    }
    SafetyReport {
        program: program.to_owned(),
        probes,
        info,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;

    fn report(src: &str) -> SafetyReport {
        let model = CrateModel::build(vec![SourceFile::parse("crates/x/src/wd.rs", src, false)]);
        analyze_safety_model("x", &model)
    }

    #[test]
    fn read_only_probe_classifies_clean() {
        let r = report(
            r#"
fn op_table(s: &S) -> OpTable {
    table.bind("partitions", vec![(OpKind::DiskRead, Arc::new(move |_snap, _| {
        s.partitions.validate_all()
    }))]);
    table
}
"#,
        );
        assert_eq!(r.probes.len(), 1);
        assert_eq!(r.probes[0].id, "partitions");
        assert_eq!(r.probes[0].class, SafetyClass::ReadOnly);
        assert!(r.violations().is_empty());
    }

    #[test]
    fn tagged_write_is_replica_write() {
        let r = report(
            r#"
const PROBE: &str = "wal/__wd_probe";
fn op_table(s: &S) -> OpTable {
    table.bind("wal/", vec![(OpKind::DiskWrite, Arc::new(move |_snap, _| {
        s.disk.append(PROBE, b"x")?;
        s.disk.fsync(PROBE)
    }))]);
    table
}
"#,
        );
        assert_eq!(r.probes[0].class, SafetyClass::ReplicaWrite);
        assert_eq!(r.probes[0].mutations.len(), 2);
        assert!(r.probes[0].mutations.iter().all(|m| m.tagged));
    }

    #[test]
    fn untagged_write_is_a_violation() {
        let r = report(
            r#"
fn op_table(s: &S) -> OpTable {
    table.bind("wal/", vec![(OpKind::DiskWrite, Arc::new(move |_snap, _| {
        s.disk.append("wal/log", b"x")
    }))]);
    table
}
"#,
        );
        assert_eq!(r.probes[0].class, SafetyClass::SharedMutation);
        assert_eq!(r.violations().len(), 1);
    }

    #[test]
    fn tagged_local_binding_carries_the_tag() {
        let r = report(
            r#"
const KEY_PREFIX: &str = "__wd:";
fn op_table(s: &S) -> OpTable {
    table.bind("index", vec![(OpKind::Compute, Arc::new(move |_snap, _| {
        let key = format!("{KEY_PREFIX}probe");
        s.index.put(&key, "v");
        s.index.remove(&key);
        Ok(())
    }))]);
    table
}
"#,
        );
        assert_eq!(r.probes[0].class, SafetyClass::ReplicaWrite, "{r:?}");
    }

    #[test]
    fn helper_call_with_tagged_args_is_replica_write() {
        let r = report(
            r#"
const PROBE: &str = "sst/__wd_probe";
fn probe_write(disk: &D, path: &str, payload: &[u8]) -> R {
    disk.append(path, payload)
}
fn op_table(s: &S) -> OpTable {
    table.bind("wal/", vec![(OpKind::DiskWrite, Arc::new(move |_snap, _| {
        probe_write(&s.disk, PROBE, b"x")
    }))]);
    table
}
"#,
        );
        assert_eq!(r.probes[0].class, SafetyClass::ReplicaWrite, "{r:?}");
        assert_eq!(r.probes[0].mutations[0].method, "probe_write");
    }

    #[test]
    fn helper_call_without_tags_is_a_violation() {
        let r = report(
            r#"
fn write_everything(disk: &D) -> R {
    disk.write_all("data/live", b"x")
}
fn op_table(s: &S) -> OpTable {
    table.bind("wal/", vec![(OpKind::DiskWrite, Arc::new(move |_snap, _| {
        write_everything(&s.disk)
    }))]);
    table
}
"#,
        );
        assert_eq!(r.probes[0].class, SafetyClass::SharedMutation);
    }

    #[test]
    fn probe_checker_closures_and_wdprobe_variant() {
        let r = report(
            r#"
fn build(s: &S) {
    b.checker(Box::new(probe_checker(
        "x.probe.send",
        "x.api",
        "send",
        clock,
        Some(opts.probe_slow_threshold),
        move || -> R {
            s.net.send(SRC, DST, Msg::WdProbe.encode())
        },
    )));
}
"#,
        );
        assert_eq!(r.probes.len(), 1);
        assert_eq!(r.probes[0].id, "x.probe.send");
        assert_eq!(r.probes[0].class, SafetyClass::ReplicaWrite);
    }

    #[test]
    fn recovery_verifiers_in_recover_rs_are_units() {
        let src = r#"
const PROBE: &str = "wal/__wd_probe";
fn recovery_map(s: &S) -> RecoveryMap {
    let s2 = Arc::clone(s);
    let wal = Verifier::new("x.verify.wal", move || s2.disk.append(PROBE, b"rv"));
    let link = Verifier::new("x.verify.link", move || {
        let msg = Msg::Heartbeat { node: s.id.clone() };
        s.net.send(&s.id, LEADER, msg.encode())
    });
    let restart = Handle::new("loop", move || s.restart());
    RecoveryMap::new(clock).with(&["x.loop"], Some(&restart), None, &wal)
}
"#;
        let model = CrateModel::build(vec![SourceFile::parse(
            "crates/x/src/recover.rs",
            src,
            false,
        )]);
        let r = analyze_safety_model("x", &model);
        let got: Vec<(&str, &str, SafetyClass)> = r
            .probes
            .iter()
            .map(|p| (p.id.as_str(), p.function.as_str(), p.class))
            .collect();
        assert_eq!(
            got,
            [
                ("x.verify.wal", "recovery_map", SafetyClass::ReplicaWrite),
                ("x.verify.link", "recovery_map", SafetyClass::SharedMutation),
            ]
        );
    }

    #[test]
    fn probes_record_their_function_and_unnamed_ones_take_its_name() {
        let r = report(
            r#"
fn op_table(s: &S) -> OpTable {
    table.bind("data/", vec![(OpKind::DiskRead, Arc::new(move |_snap, _| { s.disk.read("data/x") }))]);
    for id in IDS {
        table.bind(id, vec![(OpKind::DiskRead, Arc::new(move |_snap, _| { s.disk.read("data/y") }))]);
    }
    table
}
fn op_table_unsynced(s: &S) -> OpTable {
    table.bind("data/", vec![(OpKind::DiskRead, Arc::new(move |_snap, _| { s.disk.read("data/x") }))]);
    table.bind(ID, vec![(OpKind::DiskRead, Arc::new(move |_snap, _| { s.disk.read("data/y") }))]);
    table.bind(ID, vec![(OpKind::DiskRead, Arc::new(move |_snap, _| { s.disk.read("data/z") }))]);
    table
}
"#,
        );
        let got: Vec<(&str, &str)> = r
            .probes
            .iter()
            .map(|p| (p.id.as_str(), p.function.as_str()))
            .collect();
        assert_eq!(
            got,
            [
                ("data/", "op_table"),
                ("wd::op_table", "op_table"),
                ("data/", "op_table_unsynced"),
                ("wd::op_table_unsynced", "op_table_unsynced"),
                ("wd::op_table_unsynced_2", "op_table_unsynced"),
            ]
        );
    }

    #[test]
    fn template_registrations_are_units_judged_by_their_tags() {
        let r = report(
            r#"
const PROBE: &str = "wal/__wd_probe";
fn op_table(s: &S) -> OpTable {
    table.bind("wal/", append_log(&s.disk, PROBE));
    table.bind("sst/", framed_files(&s.disk, vec!["sst/live".into()], check, |_| Ok(())));
    table.bind("wal", labelled_lock("wal lock", None, move |_, t| s.wal.try_lock_for(t)));
    table.bind("peer", link(net, Peers::Pairs(pairs), |_| b"__wd__".to_vec()));
    table.bind("peer/2", link(net, Peers::Pairs(pairs), |p| p.to_vec()));
    table
}
"#,
        );
        let got: Vec<(&str, SafetyClass)> =
            r.probes.iter().map(|p| (p.id.as_str(), p.class)).collect();
        assert_eq!(
            got,
            [
                ("wal/", SafetyClass::ReplicaWrite),
                ("sst/", SafetyClass::SharedMutation),
                ("wal", SafetyClass::ReadOnly),
                ("peer", SafetyClass::ReplicaWrite),
                ("peer/2", SafetyClass::SharedMutation),
            ]
        );
        assert_eq!(r.probes[1].mutations[0].method, "framed_files");
    }

    #[test]
    fn check_methods_in_checker_files_are_units() {
        let src = r#"
impl Checker for Legacy {
    fn check(&mut self) -> CheckStatus {
        let _ = self.store.list_volume("v0");
        CheckStatus::Pass
    }
}
impl Checker for Enhanced {
    fn check(&mut self) -> CheckStatus {
        self.probe_volume("v0")
    }
}
impl Enhanced {
    fn probe_volume(&self, v: &str) -> CheckStatus {
        let path = format!("blocks/{v}/__wd_probe");
        self.disk.write_all(&path, b"x");
        CheckStatus::Pass
    }
}
"#;
        let model = CrateModel::build(vec![SourceFile::parse(
            "crates/miniblock/src/disk_checker.rs",
            src,
            false,
        )]);
        let r = analyze_safety_model("miniblock", &model);
        assert_eq!(r.probes.len(), 2, "{r:?}");
        assert_eq!(r.probes[0].class, SafetyClass::ReadOnly);
        assert_eq!(r.probes[1].class, SafetyClass::ReplicaWrite, "{r:?}");
        // Non-literal ids are named by function + ordinal, in source order.
        let ids: Vec<&str> = r.probes.iter().map(|p| p.id.as_str()).collect();
        assert_eq!(ids, ["disk_checker::check", "disk_checker::check_2"]);
    }
}
