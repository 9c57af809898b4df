//! Versioned on-disk corpus snapshots.
//!
//! Building a [`SimilarityEngine`] corpus means decomposing, lifting,
//! hashing and signing every target procedure — work that is identical
//! across runs of the evaluation harness and the CLI. A snapshot persists
//! the engine's derived state (strand classes, structural hashes, semantic
//! signatures, target records, configuration) plus, optionally, the warmed
//! cross-query VCP cache, so later processes resume without rebuilding.
//!
//! ## Format
//!
//! A snapshot is a single JSON document (rendered by the vendored
//! `serde_json`) with this top-level shape:
//!
//! ```text
//! {
//!   "format_version": 5,          // SNAPSHOT_FORMAT_VERSION at write time
//!   "config_fingerprint": <u64>,  // EngineConfig::fingerprint() at write time
//!   "config": { ... },            // full EngineConfig (threads included but
//!                                 //   excluded from the fingerprint)
//!   "classes": [ ... ],           // deduplicated strand classes, with their
//!                                 //   structural hashes and signatures
//!   "targets": [ ... ],           // per-target (class index, count) lists
//!   "cache": [ ... ]              // optional warmed VCP cache entries
//! }
//! ```
//!
//! ## Invalidation rules
//!
//! * `format_version` must equal [`SNAPSHOT_FORMAT_VERSION`]. It is read
//!   before anything else is deserialized, so a file from any other
//!   version is rejected with [`SnapshotError::VersionMismatch`] whatever
//!   its shape; rebuild it (or re-run `esh index build`).
//! * `config_fingerprint` must equal the fingerprint recomputed from the
//!   embedded `config`; a mismatch means the file was edited or corrupted.
//! * [`SimilarityEngine::load_compatible`] additionally rejects snapshots
//!   whose fingerprint differs from the caller's expected configuration,
//!   so experiment harnesses never silently reuse state built under
//!   different thresholds. `threads` is a runtime knob and deliberately
//!   excluded from the fingerprint.
//! * Structural hashes are computed with the standard library's default
//!   hasher, so snapshots are tied to the toolchain that wrote them;
//!   rebuild snapshots after a compiler upgrade.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::cache::{VcpCache, VcpCacheEntry};
use crate::engine::{EngineConfig, SimilarityEngine, StrandClass, TargetRecord};

/// The one snapshot format version this build reads and writes.
///
/// Bump policy: increment on **any** change to the serialized shape of
/// [`EngineConfig`], `StrandClass`, `TargetRecord`, [`VcpCacheEntry`] or
/// the top-level layout, or to the config fingerprint. Older files are
/// rejected, not migrated.
///
/// Version 5 made the staged-pricing knobs of
/// [`PrefilterConfig`](crate::PrefilterConfig) plain numbers (0 = off),
/// dropped its `enabled` switch, and fixed the signature-overlap
/// threshold at 0.5 instead of storing it in [`EngineConfig`].
pub const SNAPSHOT_FORMAT_VERSION: u32 = 5;

/// How a [`SnapshotError::ConfigMismatch`] came about — the two cases call
/// for different operator action, so the error spells them apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigMismatchKind {
    /// The fingerprint recorded in the file disagrees with the one
    /// recomputed from the embedded configuration: the file was edited or
    /// corrupted after it was written.
    Corrupted,
    /// The snapshot is internally consistent but was built under engine
    /// thresholds different from the caller's required configuration.
    Incompatible,
}

/// Why a snapshot failed to save or load. Every variant names the file it
/// refers to, so a daemon juggling several indexes produces actionable
/// startup errors.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem error.
    Io {
        /// File being read or written.
        path: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
    /// The file is not a well-formed snapshot document.
    Format {
        /// File that failed to parse.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
    /// The file was written by an incompatible format version.
    VersionMismatch {
        /// File that was rejected.
        path: PathBuf,
        /// Version recorded in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The configuration fingerprint does not match.
    ConfigMismatch {
        /// File that was rejected.
        path: PathBuf,
        /// Fingerprint recorded in the file.
        found: u64,
        /// Fingerprint the loader requires.
        expected: u64,
        /// Whether this is corruption or an honest config difference.
        kind: ConfigMismatchKind,
    },
}

impl SnapshotError {
    /// The snapshot file the error refers to.
    pub fn path(&self) -> &Path {
        match self {
            SnapshotError::Io { path, .. }
            | SnapshotError::Format { path, .. }
            | SnapshotError::VersionMismatch { path, .. }
            | SnapshotError::ConfigMismatch { path, .. } => path,
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, source } => {
                write!(f, "snapshot {}: i/o: {source}", path.display())
            }
            SnapshotError::Format { path, detail } => {
                write!(f, "snapshot {}: malformed document: {detail}", path.display())
            }
            SnapshotError::VersionMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "snapshot {}: format version {found} is not supported (this \
                 build reads version {expected}); rebuild the index",
                path.display()
            ),
            SnapshotError::ConfigMismatch {
                path,
                found,
                expected,
                kind,
            } => match kind {
                ConfigMismatchKind::Corrupted => write!(
                    f,
                    "snapshot {}: recorded config fingerprint {found:#018x} \
                     does not match {expected:#018x} recomputed from the \
                     embedded configuration — the file was edited or \
                     corrupted after it was written; rebuild the index",
                    path.display()
                ),
                ConfigMismatchKind::Incompatible => write!(
                    f,
                    "snapshot {}: built under config fingerprint {found:#018x} \
                     but this run requires {expected:#018x} — the engine \
                     thresholds differ; rebuild the index under the current \
                     configuration",
                    path.display()
                ),
            },
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The on-disk document. Field order is the serialization order.
#[derive(Serialize, Deserialize)]
struct SnapshotFile {
    format_version: u32,
    config_fingerprint: u64,
    config: EngineConfig,
    classes: Vec<StrandClass>,
    targets: Vec<TargetRecord>,
    cache: Vec<VcpCacheEntry>,
}

impl SimilarityEngine {
    /// Serializes the engine's corpus state to `path` (without the VCP
    /// cache; use [`SimilarityEngine::save_with_cache`] to persist warmed
    /// results too).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        self.write_snapshot(path.as_ref(), Vec::new())
    }

    /// Serializes corpus state *and* the current VCP cache contents, so a
    /// later process starts with every previously verified pair memoized.
    pub fn save_with_cache(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        self.write_snapshot(path.as_ref(), self.cache().entries())
    }

    fn write_snapshot(&self, path: &Path, cache: Vec<VcpCacheEntry>) -> Result<(), SnapshotError> {
        let file = SnapshotFile {
            format_version: SNAPSHOT_FORMAT_VERSION,
            config_fingerprint: self.config().fingerprint(),
            config: self.config().clone(),
            classes: self.classes_for_snapshot(),
            targets: self.targets_for_snapshot().to_vec(),
            cache,
        };
        let json = serde_json::to_string(&file).map_err(|e| SnapshotError::Format {
            path: path.to_path_buf(),
            detail: e.to_string(),
        })?;
        std::fs::write(path, json).map_err(|e| SnapshotError::Io {
            path: path.to_path_buf(),
            source: e,
        })?;
        Ok(())
    }

    /// Restores an engine from a snapshot written by
    /// [`SimilarityEngine::save`] / `save_with_cache`.
    ///
    /// Rejects files whose `format_version` is not
    /// [`SNAPSHOT_FORMAT_VERSION`] — checked before the rest of the
    /// document is deserialized — and files whose recorded fingerprint
    /// does not match the one recomputed from the embedded configuration
    /// (a tamper/corruption check).
    pub fn load(path: impl AsRef<Path>) -> Result<SimilarityEngine, SnapshotError> {
        let path = path.as_ref();
        let format_err = |detail: String| SnapshotError::Format {
            path: path.to_path_buf(),
            detail,
        };
        let text = std::fs::read_to_string(path).map_err(|e| SnapshotError::Io {
            path: path.to_path_buf(),
            source: e,
        })?;
        let doc: serde::Value =
            serde_json::from_str(&text).map_err(|e| format_err(e.to_string()))?;
        let fields = doc
            .as_object()
            .ok_or_else(|| format_err(format!("expected an object, found {}", doc.kind())))?;
        let found: u32 =
            serde::field(fields, "format_version").map_err(|e| format_err(e.to_string()))?;
        if found != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                path: path.to_path_buf(),
                found,
                expected: SNAPSHOT_FORMAT_VERSION,
            });
        }
        let file = SnapshotFile::deserialize(&doc).map_err(|e| format_err(e.to_string()))?;
        let recomputed = file.config.fingerprint();
        if file.config_fingerprint != recomputed {
            return Err(SnapshotError::ConfigMismatch {
                path: path.to_path_buf(),
                found: file.config_fingerprint,
                expected: recomputed,
                kind: ConfigMismatchKind::Corrupted,
            });
        }
        let mut class_by_hash = HashMap::with_capacity(file.classes.len());
        for (i, class) in file.classes.iter().enumerate() {
            class_by_hash.insert(class.hash, i);
        }
        if class_by_hash.len() != file.classes.len() {
            return Err(format_err("duplicate strand-class hashes in snapshot".into()));
        }
        for target in &file.targets {
            if target.strands.iter().any(|&(ci, _)| ci >= file.classes.len()) {
                return Err(format_err(format!(
                    "target `{}` references a class index out of range",
                    target.name
                )));
            }
        }
        Ok(SimilarityEngine::from_snapshot_parts(
            file.config,
            file.classes,
            class_by_hash,
            file.targets,
            VcpCache::from_entries(&file.cache),
        ))
    }

    /// Like [`SimilarityEngine::load`], but also rejects snapshots whose
    /// configuration fingerprint differs from `expected`'s — the guard
    /// experiment harnesses use before reusing an index across runs.
    pub fn load_compatible(
        path: impl AsRef<Path>,
        expected: &EngineConfig,
    ) -> Result<SimilarityEngine, SnapshotError> {
        let path = path.as_ref();
        let engine = SimilarityEngine::load(path)?;
        let found = engine.config().fingerprint();
        let want = expected.fingerprint();
        if found != want {
            return Err(SnapshotError::ConfigMismatch {
                path: path.to_path_buf(),
                found,
                expected: want,
                kind: ConfigMismatchKind::Incompatible,
            });
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("esh-snapshot-err-{name}-{}", std::process::id()))
    }

    /// A tiny engine whose snapshot is cheap to write and tamper with.
    fn tiny_engine() -> SimilarityEngine {
        let p = esh_asm::parse_proc(
            "proc p\nentry:\nmov r12, rbx\nadd r12, 5\nlea rdi, [r12+0x3]\nxor rax, rdi",
        )
        .unwrap();
        let mut engine = SimilarityEngine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        engine.add_target("t0", &p);
        engine
    }

    #[test]
    fn missing_file_reports_path() {
        let path = temp_path("does-not-exist");
        match SimilarityEngine::load(&path) {
            Err(e @ SnapshotError::Io { .. }) => {
                assert_eq!(e.path(), path.as_path());
                assert!(e.to_string().contains(&path.display().to_string()));
            }
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn garbage_document_reports_path_and_detail() {
        let path = temp_path("garbage");
        std::fs::write(&path, "not json at all").unwrap();
        match SimilarityEngine::load(&path) {
            Err(e @ SnapshotError::Format { .. }) => {
                assert_eq!(e.path(), path.as_path());
                assert!(e.to_string().contains("malformed"));
                assert!(e.to_string().contains(&path.display().to_string()));
            }
            other => panic!("expected Format error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_reports_path_and_both_versions() {
        let path = temp_path("version");
        tiny_engine().save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let needle = format!("\"format_version\":{SNAPSHOT_FORMAT_VERSION}");
        std::fs::write(&path, text.replace(&needle, "\"format_version\":777")).unwrap();
        match SimilarityEngine::load(&path) {
            Err(
                e @ SnapshotError::VersionMismatch {
                    found: 777,
                    expected: SNAPSHOT_FORMAT_VERSION,
                    ..
                },
            ) => {
                let msg = e.to_string();
                assert!(msg.contains(&path.display().to_string()));
                assert!(msg.contains("777"));
                assert!(msg.contains(&SNAPSHOT_FORMAT_VERSION.to_string()));
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        // A previous-version document carries the old config shape (a
        // nullable staged-pricing knob, the `enabled` switch), which no
        // longer deserializes: the version check runs first, so it is
        // still reported as a version mismatch rather than a format error.
        let prev = SNAPSHOT_FORMAT_VERSION - 1;
        let old_shape = text
            .replace(&needle, &format!("\"format_version\":{prev}"))
            .replace("\"ambiguity_window\":0.2", "\"ambiguity_window\":null")
            .replace("\"vectors\":", "\"enabled\":true,\"vectors\":");
        assert!(old_shape.contains("\"ambiguity_window\":null,"));
        std::fs::write(&path, old_shape).unwrap();
        match SimilarityEngine::load(&path) {
            Err(e @ SnapshotError::VersionMismatch { found, expected, .. }) => {
                assert_eq!((found, expected), (prev, SNAPSHOT_FORMAT_VERSION));
                let msg = e.to_string();
                assert!(msg.contains(&prev.to_string()));
                assert!(msg.contains(&SNAPSHOT_FORMAT_VERSION.to_string()));
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tampered_fingerprint_is_reported_as_corruption() {
        let engine = tiny_engine();
        let path = temp_path("corrupt");
        engine.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let needle = format!("\"config_fingerprint\":{}", engine.config().fingerprint());
        assert!(text.contains(&needle));
        std::fs::write(&path, text.replace(&needle, "\"config_fingerprint\":12345")).unwrap();
        match SimilarityEngine::load(&path) {
            Err(
                e @ SnapshotError::ConfigMismatch {
                    kind: ConfigMismatchKind::Corrupted,
                    found: 12345,
                    ..
                },
            ) => {
                let msg = e.to_string();
                assert!(msg.contains("corrupted"));
                assert!(msg.contains(&path.display().to_string()));
            }
            other => panic!("expected corrupted ConfigMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn incompatible_config_is_reported_as_such() {
        let engine = tiny_engine();
        let path = temp_path("incompatible");
        engine.save(&path).unwrap();
        let mut want = engine.config().clone();
        want.vcp.size_ratio += 0.125;
        match SimilarityEngine::load_compatible(&path, &want) {
            Err(
                e @ SnapshotError::ConfigMismatch {
                    kind: ConfigMismatchKind::Incompatible,
                    ..
                },
            ) => {
                let msg = e.to_string();
                assert!(msg.contains("thresholds differ"));
                assert!(msg.contains(&path.display().to_string()));
                assert!(msg.contains(&format!("{:#018x}", engine.config().fingerprint())));
                assert!(msg.contains(&format!("{:#018x}", want.fingerprint())));
            }
            other => panic!("expected incompatible ConfigMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
