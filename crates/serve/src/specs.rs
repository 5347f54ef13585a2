//! Mapping-artifact loading and line routing shared by every serving
//! front end (`pmevo-serve`, `pmevo-cli predict`), so the daemon and the
//! offline pipe resolve `--mapping` specs and `PLATFORM:` prefixes
//! identically.

use pmevo_machine::platforms;
use pmevo_predict::{
    load_artifact_file, validate_mapping_name, LoadedArtifact, MappingId, MappingStore, StoreError,
};

/// Loads and validates one `NAME=file` mapping artifact, returning the
/// canonical registration name and the loaded artifact (which remembers
/// its path, so budgeted stores can evict and lazily reload it).
///
/// Two kinds of name are accepted:
///
/// * a **built-in platform** (`SKL`, `ZEN`, `A72`, `TINY`) — the
///   platform supplies the instruction-name table JSON artifacts lack,
///   and the artifact's shape (instruction count *and* port count) is
///   checked against it; binary artifacts additionally have their
///   embedded table verified against the platform's;
/// * **any other registrable name** — allowed only for binary artifacts,
///   which embed their own name table; a JSON artifact under an unknown
///   name has no instruction names to resolve sequences with, so it is
///   refused with a message saying exactly that.
///
/// # Errors
///
/// A printable message for unregistrable names (`@`, `=`, whitespace —
/// reserved by the `name@version` / `NAME=file` grammars), unreadable
/// files, corrupt artifacts, shape mismatches and name-table mismatches.
pub fn load_spec_artifact(name: &str, path: &str) -> Result<(String, LoadedArtifact), String> {
    validate_mapping_name(name).map_err(|e| e.to_string())?;
    match platforms::by_name(name) {
        Some(platform) => {
            let names: Vec<String> =
                platform.isa().forms().iter().map(|f| f.name.clone()).collect();
            let loaded = load_artifact_file(path, Some(&names)).map_err(|e| e.to_string())?;
            if loaded.mapping.num_ports() != platform.num_ports() {
                return Err(format!(
                    "mapping shape ({} insts, {} ports) does not match platform {} ({} insts, {} ports)",
                    loaded.mapping.num_insts(),
                    loaded.mapping.num_ports(),
                    platform.name(),
                    platform.isa().len(),
                    platform.num_ports()
                ));
            }
            Ok((platform.name().to_owned(), loaded))
        }
        None => match load_artifact_file(path, None) {
            Ok(loaded) => Ok((name.to_owned(), loaded)),
            Err(StoreError::MissingNames { path }) => Err(format!(
                "{name:?} is not a built-in platform, so {path} must be a binary \
                 artifact (JSON artifacts carry no instruction names; \
                 see `pmevo-cli convert`)"
            )),
            Err(e) => Err(e.to_string()),
        },
    }
}

/// Builds a [`MappingStore`] from `NAME=file` specs (the repeated
/// `--mapping` flags of `pmevo-serve` and `pmevo-cli predict`), holding
/// payloads under `budget` bytes when one is given (`--store-budget`).
/// Every entry is registered through [`load_spec_artifact`], so it is
/// evictable and lazily reloadable from its artifact path.
///
/// # Errors
///
/// `at least one --mapping NAME=file.json is required` for an empty spec
/// list — a serving process with an empty store has nothing to answer
/// from — plus every failure of [`load_spec_artifact`].
pub fn store_from_specs(specs: &[String], budget: Option<u64>) -> Result<MappingStore, String> {
    if specs.is_empty() {
        return Err("at least one --mapping NAME=file.json is required".to_string());
    }
    let mut store = MappingStore::with_budget(budget);
    for spec in specs {
        let Some((name, path)) = spec.split_once('=') else {
            return Err(format!(
                "--mapping {spec:?} is not of the form NAME=file.json (or pass --platform P --mapping file.json)"
            ));
        };
        let (canonical, loaded) = load_spec_artifact(name, path)?;
        store.insert_loaded(canonical, loaded).map_err(|e| e.to_string())?;
    }
    Ok(store)
}

/// Routes one input line to a stored mapping: a leading `PLATFORM:`
/// prefix is consumed when (and only when) it names a stored mapping,
/// case-insensitively; everything else goes to the latest version of
/// `default_name`. Returns the routed id and the sequence text, or
/// `None` when `default_name` itself is not in the store (an empty or
/// misconfigured store — callers report it instead of panicking).
///
/// The `:` also spells repeat counts in the sequence grammar
/// (`add:2`), which is why an unrecognized prefix falls back to the
/// whole line rather than erroring.
pub fn route_line<'a>(
    store: &MappingStore,
    default_name: &str,
    line: &'a str,
) -> Option<(MappingId, &'a str)> {
    let lookup = |name: &str| {
        let name = name.trim();
        store.latest(name).or_else(|| store.latest(&name.to_uppercase()))
    };
    let default = lookup(default_name)?;
    Some(match line.split_once(':') {
        Some((name, rest)) => match lookup(name) {
            Some(id) => (id, rest),
            None => (default, line),
        },
        None => (default, line),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmevo_core::MappingArtifact;

    /// A directory private to one test of one test process, removed
    /// when the test ends.
    struct ScratchDir(std::path::PathBuf);

    impl ScratchDir {
        fn new(test: &str) -> ScratchDir {
            let dir = std::env::temp_dir()
                .join(format!("pmevo_serve_specs_{test}_{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            ScratchDir(dir)
        }

        fn path(&self, file: &str) -> std::path::PathBuf {
            self.0.join(file)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn specs_require_at_least_one_mapping() {
        let err = store_from_specs(&[], None).unwrap_err();
        assert_eq!(err, "at least one --mapping NAME=file.json is required");
    }

    #[test]
    fn specs_reject_malformed_and_unknown_entries() {
        let bare = store_from_specs(&["bare.json".into()], None).unwrap_err();
        assert!(bare.contains("NAME=file.json"), "{bare}");
        // An unknown name is only an error for JSON artifacts (no name
        // table); the message explains the binary alternative.
        let unknown = store_from_specs(&["M1=/definitely/not/here.json".into()], None).unwrap_err();
        assert!(unknown.contains("cannot read"), "{unknown}");
        let missing =
            store_from_specs(&["TINY=/definitely/not/here.json".into()], None).unwrap_err();
        assert!(missing.contains("cannot read"), "{missing}");
    }

    #[test]
    fn specs_reject_reserved_characters_in_names() {
        // `@` is the version separator of `name@version` labels and `=`
        // splits the spec itself, so neither can be a mapping name.
        let err = store_from_specs(&["TINY@2=x.json".into()], None).unwrap_err();
        assert!(err.contains("invalid mapping name"), "{err}");
        assert!(err.contains('@'), "{err}");
    }

    #[test]
    fn specs_load_and_shape_check_real_artifacts() {
        let dir = ScratchDir::new("load");
        let good = dir.path("tiny.json");
        std::fs::write(&good, platforms::tiny().ground_truth().to_json_pretty()).unwrap();
        let store =
            store_from_specs(&[format!("TINY={}", good.display())], None).expect("valid artifact");
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(store.latest("TINY").unwrap()).label(), "TINY@1");

        // The same artifact under the wrong platform is a shape error.
        let err = store_from_specs(&[format!("SKL={}", good.display())], None).unwrap_err();
        assert!(
            err.contains("does not match") || err.contains("does not fit"),
            "{err}"
        );
    }

    #[test]
    fn binary_specs_work_for_platforms_and_free_names() {
        let tiny = platforms::tiny();
        let names: Vec<String> = tiny.isa().forms().iter().map(|f| f.name.clone()).collect();
        let artifact = MappingArtifact::new(names, tiny.ground_truth().clone());
        let dir = ScratchDir::new("binary");
        let path = dir.path("tiny_spec.bin");
        std::fs::write(&path, artifact.to_bytes()).unwrap();

        // Under the platform name the embedded table is verified.
        let store = store_from_specs(&[format!("TINY={}", path.display())], None).unwrap();
        assert_eq!(store.get(store.latest("TINY").unwrap()).label(), "TINY@1");
        // Under a free name the embedded table simply IS the table.
        let store = store_from_specs(&[format!("FLEET7={}", path.display())], None).unwrap();
        let id = store.latest("FLEET7").unwrap();
        assert!(store.get(id).resolve("add_r64_r64_r64").is_some());

        // A JSON artifact under a free name has no name table: refused
        // with a pointer at the binary format.
        let json = dir.path("tiny_spec.json");
        std::fs::write(&json, tiny.ground_truth().to_json_pretty()).unwrap();
        let err = store_from_specs(&[format!("FLEET7={}", json.display())], None).unwrap_err();
        assert!(err.contains("not a built-in platform"), "{err}");
        assert!(err.contains("tiny_spec.json"), "error names the path: {err}");
    }

    #[test]
    fn budgeted_specs_register_evictable_entries() {
        let tiny = platforms::tiny();
        let names: Vec<String> = tiny.isa().forms().iter().map(|f| f.name.clone()).collect();
        let artifact = MappingArtifact::new(names, tiny.ground_truth().clone());
        let dir = ScratchDir::new("budget");
        let path = dir.path("tiny_budget.bin");
        std::fs::write(&path, artifact.to_bytes()).unwrap();

        let specs = vec![
            format!("A1={}", path.display()),
            format!("B2={}", path.display()),
            format!("C3={}", path.display()),
        ];
        let store = store_from_specs(&specs, Some(1)).expect("budget never refuses registration");
        assert_eq!(store.budget(), Some(1));
        // A 1-byte budget keeps at most the most recent payload resident;
        // all three still answer (lazily reloading from their paths).
        assert!(store.resident_count() <= 1);
        for id in store.ids() {
            assert!(store.get(id).mapping().is_ok(), "evicted entries reload on demand");
        }
        assert!(store.residency_stats().evictions > 0);
    }

    #[test]
    fn routing_consumes_known_prefixes_only() {
        let mut store = MappingStore::new();
        let tiny = platforms::tiny();
        let names: Vec<String> = tiny.isa().forms().iter().map(|f| f.name.clone()).collect();
        let t1 = store.insert("TINY", names.clone(), tiny.ground_truth().clone());
        let t2 = store.insert("TINY", names, tiny.ground_truth().clone());
        let skl = platforms::skl();
        let s1 = store.insert(
            "SKL",
            skl.isa().forms().iter().map(|f| f.name.clone()).collect(),
            skl.ground_truth().clone(),
        );

        // Prefix routing, case-insensitively; latest version wins.
        assert_eq!(route_line(&store, "TINY", "SKL: add_r64_r64"), Some((s1, " add_r64_r64")));
        assert_eq!(route_line(&store, "TINY", "skl: add_r64_r64"), Some((s1, " add_r64_r64")));
        assert_eq!(route_line(&store, "TINY", "TINY: x"), Some((t2, " x")));
        assert_ne!(t1, t2);
        // A `:` that spells a repeat count is not a route.
        assert_eq!(route_line(&store, "TINY", "add:2"), Some((t2, "add:2")));
        // Unrouteable default name: no panic, a None.
        assert_eq!(route_line(&store, "M1", "add"), None);
    }
}
