//! The kill/resume seam of the batched exact-integer folds: the
//! hyperfleet shard loop (F18) and the traffic sweep (F19).
//!
//! An [`ExactRollup`] lists its fields once, in [`ExactRollup::walk`],
//! and that walk drives both encoding and decoding. A [`Checkpoint`]
//! store loads and saves the cumulative rollup after a batch, keyed by a
//! config digest: [`NoStore`] never persists, [`MemStore`] is the test
//! fake, [`FileStore`] writes `<FAMILY>-<tag>-b<batch>.json` through
//! [`write_atomic`]. [`resume_batches`] owns the protocol: resume after
//! the newest valid checkpoint, run at most `stop_after` batches this
//! invocation (`Ok(None)` means "stopped early, resume me"), and save
//! after every batch.
//!
//! A checkpoint file holds `schema`, `batch`, `digest`, then every field
//! in walk order, all as fixed-width lowercase hex strings (16 digits for
//! `u64`, 32 for `u128`, histograms as arrays): JSON numbers are
//! `f64`-backed and would round above 2^53. A file whose schema, batch,
//! digest or fields do not match is ignored with a
//! `[<NAME>] ignoring invalid checkpoint` line, so a stale checkpoint
//! can never seed a resume.

use crate::json::Json;
use mosaic_units::{MosaicError, Result};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// One field of a rollup, borrowed by [`ExactRollup::walk`].
#[derive(Debug)]
pub enum Field<'a> {
    /// A `u64` counter.
    U64(&'a mut u64),
    /// A `u128` sum.
    U128(&'a mut u128),
    /// A fixed-length `u64` histogram.
    Hist(&'a mut [u64]),
}

/// An exact-integer rollup that can be checkpointed.
pub trait ExactRollup: Default + Clone {
    /// Checkpoint schema identifier.
    const SCHEMA: &'static str;
    /// File family: the `<FAMILY>-` prefix of checkpoint file names.
    const FAMILY: &'static str;
    /// The `[<NAME>]` prefix of checkpoint log lines.
    const NAME: &'static str;
    /// Error scope of a failed save.
    const ERROR_SCOPE: &'static str;
    /// Fold another rollup in (exact integer addition, lint R6).
    fn merge(&mut self, other: &Self);
    /// Visit every field once, in wire order.
    fn walk(&mut self, visit: &mut dyn FnMut(&'static str, Field<'_>));
}

/// Checkpoint persistence for a batched fold.
pub trait Checkpoint<R: ExactRollup> {
    /// The cumulative rollup saved after `batch`, if stamped with `digest`.
    fn load(&mut self, batch: u64, digest: u64) -> Option<R>;
    /// Persist the cumulative rollup after `batch`.
    fn save(&mut self, batch: u64, digest: u64, rollup: &R) -> Result<()>;
}

/// A [`Checkpoint`] that never persists: every run starts fresh.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoStore;

impl<R: ExactRollup> Checkpoint<R> for NoStore {
    fn load(&mut self, _batch: u64, _digest: u64) -> Option<R> {
        None
    }
    fn save(&mut self, _batch: u64, _digest: u64, _rollup: &R) -> Result<()> {
        Ok(())
    }
}

/// An in-memory [`Checkpoint`] for tests: like one file per batch, a
/// save replaces the batch's slot whatever digest it held.
#[derive(Debug, Clone, Default)]
pub struct MemStore<R> {
    /// Batch → (digest, cumulative rollup).
    pub saved: BTreeMap<u64, (u64, R)>,
}

impl<R: ExactRollup> Checkpoint<R> for MemStore<R> {
    fn load(&mut self, batch: u64, digest: u64) -> Option<R> {
        let (d, r) = self.saved.get(&batch)?;
        (*d == digest).then(|| r.clone())
    }
    fn save(&mut self, batch: u64, digest: u64, rollup: &R) -> Result<()> {
        self.saved.insert(batch, (digest, rollup.clone()));
        Ok(())
    }
}

/// Run `batches` batches of a fold under the checkpoint protocol (see
/// the module docs); `run_batch(b)` computes batch `b`'s part.
pub fn resume_batches<R: ExactRollup>(
    store: &mut dyn Checkpoint<R>,
    digest: u64,
    batches: u64,
    stop_after: Option<u64>,
    mut run_batch: impl FnMut(u64) -> R,
) -> Result<Option<R>> {
    let (mut cumulative, start) = (0..batches)
        .rev()
        .find_map(|b| store.load(b, digest).map(|r| (r, b + 1)))
        .unwrap_or_default();
    for (executed, b) in (start..batches).enumerate() {
        if stop_after.is_some_and(|limit| executed as u64 >= limit) {
            return Ok(None);
        }
        cumulative.merge(&run_batch(b));
        store.save(b, digest, &cumulative)?;
    }
    Ok(Some(cumulative))
}

/// Write `contents` to `path` via `.<stem>.tmp` beside it and a rename,
/// creating the directory if needed.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let dir = path.parent().unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir)?;
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let tmp = dir.join(format!(".{stem}.tmp"));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// A [`Checkpoint`] over one JSON file per batch in `dir`. The `tag`
/// keeps concurrent folds (e.g. F18's two policies) apart.
#[derive(Debug, Clone)]
pub struct FileStore<R> {
    dir: PathBuf,
    tag: String,
    rollup: PhantomData<fn() -> R>,
}

impl<R: ExactRollup> FileStore<R> {
    /// A store writing checkpoints under `dir` (created on first save).
    pub fn new(dir: impl Into<PathBuf>, tag: &str) -> Self {
        FileStore {
            dir: dir.into(),
            tag: tag.to_string(),
            rollup: PhantomData,
        }
    }

    /// Checkpoint path for one batch.
    pub fn path(&self, batch: u64) -> PathBuf {
        self.dir.join(format!("{}{batch}.json", self.prefix()))
    }

    fn prefix(&self) -> String {
        format!("{}-{}-b", R::FAMILY, self.tag)
    }

    /// Delete this store's checkpoint files; other tags, families and
    /// figure fragments stay.
    pub fn clear(&self) {
        let prefix = self.prefix();
        for entry in std::fs::read_dir(&self.dir).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let name = name.to_str().unwrap_or("");
            if name.starts_with(&prefix) && name.ends_with(".json") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

impl<R: ExactRollup> Checkpoint<R> for FileStore<R> {
    fn load(&mut self, batch: u64, digest: u64) -> Option<R> {
        let path = self.path(batch);
        let doc = Json::parse(&std::fs::read_to_string(&path).ok()?).ok()?;
        decode(&doc, batch, digest)
            .map_err(|e| {
                let path = path.display();
                eprintln!("[{}] ignoring invalid checkpoint {path}: {e}", R::NAME);
            })
            .ok()
    }

    fn save(&mut self, batch: u64, digest: u64, rollup: &R) -> Result<()> {
        let text = encode(batch, digest, rollup).to_string_pretty();
        write_atomic(&self.path(batch), &text).map_err(|e| {
            let reason = format!("cannot write checkpoint for batch {batch}: {e}");
            MosaicError::invalid_config(R::ERROR_SCOPE, reason)
        })
    }
}

fn hex(v: u64) -> Json {
    Json::from(format!("{v:016x}"))
}

fn encode<R: ExactRollup>(batch: u64, digest: u64, rollup: &R) -> Json {
    let mut doc = Json::object()
        .with("schema", R::SCHEMA)
        .with("batch", hex(batch))
        .with("digest", hex(digest));
    rollup.clone().walk(&mut |name, field| {
        let value = match field {
            Field::U64(v) => hex(*v),
            Field::U128(v) => Json::from(format!("{v:032x}")),
            Field::Hist(vs) => Json::Arr(vs.iter().map(|&v| hex(v)).collect()),
        };
        doc.set(name, value);
    });
    doc
}

type Parsed<T> = std::result::Result<T, String>;

fn parse_u128(v: Option<&Json>, name: &str) -> Parsed<u128> {
    let s = v
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{name}: not a string"))?;
    u128::from_str_radix(s, 16).map_err(|_| format!("{name}: not a hex integer"))
}

fn parse_u64(v: Option<&Json>, name: &str) -> Parsed<u64> {
    u64::try_from(parse_u128(v, name)?).map_err(|_| format!("{name}: wider than 64 bits"))
}

fn decode<R: ExactRollup>(doc: &Json, batch: u64, digest: u64) -> Parsed<R> {
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some(R::SCHEMA) {
        return Err(format!("schema: expected {:?}, got {schema:?}", R::SCHEMA));
    }
    if parse_u64(doc.get("batch"), "batch")? != batch {
        return Err("batch mismatch".into());
    }
    if parse_u64(doc.get("digest"), "digest")? != digest {
        return Err("config digest mismatch".into());
    }
    let mut rollup = R::default();
    let mut parsed = Ok(());
    rollup.walk(&mut |name, field| {
        if parsed.is_ok() {
            parsed = decode_field(doc.get(name), name, field);
        }
    });
    parsed.map(|()| rollup)
}

fn decode_field(v: Option<&Json>, name: &str, field: Field<'_>) -> Parsed<()> {
    match field {
        Field::U64(x) => *x = parse_u64(v, name)?,
        Field::U128(x) => *x = parse_u128(v, name)?,
        Field::Hist(xs) => {
            let arr = v.and_then(Json::as_arr).filter(|a| a.len() == xs.len());
            let arr = arr.ok_or_else(|| format!("{name}: not an array of {} buckets", xs.len()))?;
            for (x, v) in xs.iter_mut().zip(arr) {
                *x = parse_u64(Some(v), name)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy rollup with one field of each kind.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Toy {
        count: u64,
        sum: u128,
        hist: [u64; 3],
    }

    impl ExactRollup for Toy {
        const SCHEMA: &'static str = "mosaic-toy-rollup/v1";
        const FAMILY: &'static str = "toy";
        const NAME: &'static str = "toy";
        const ERROR_SCOPE: &'static str = "toy_checkpoint";
        fn merge(&mut self, other: &Self) {
            self.count += other.count;
            self.sum += other.sum;
            for (a, b) in self.hist.iter_mut().zip(&other.hist) {
                *a += b;
            }
        }
        fn walk(&mut self, visit: &mut dyn FnMut(&'static str, Field<'_>)) {
            visit("count", Field::U64(&mut self.count));
            visit("sum", Field::U128(&mut self.sum));
            visit("hist", Field::Hist(&mut self.hist));
        }
    }

    fn toy(k: u64) -> Toy {
        Toy {
            count: k,
            sum: u128::from(k) << 70,
            hist: [k, 2 * k, 3 * k],
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mosaic-ckpt-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Drive `resume_batches` with a part of `toy(b + 1)` per batch,
    /// recording which batches actually ran.
    fn drive(
        store: &mut dyn Checkpoint<Toy>,
        digest: u64,
        batches: u64,
        stop_after: Option<u64>,
        ran: &mut Vec<u64>,
    ) -> Option<Toy> {
        resume_batches(store, digest, batches, stop_after, |b| {
            ran.push(b);
            toy(b + 1)
        })
        .unwrap()
    }

    #[test]
    fn resume_runs_every_batch_once_across_kills() {
        let mut clean_ran = Vec::new();
        let clean = drive(&mut NoStore, 7, 5, None, &mut clean_ran).unwrap();
        assert_eq!(clean_ran, vec![0, 1, 2, 3, 4]);
        let mut store = MemStore::default();
        let mut ran = Vec::new();
        assert_eq!(drive(&mut store, 7, 5, Some(2), &mut ran), None);
        assert_eq!(ran, vec![0, 1]);
        assert_eq!(store.saved.len(), 2);
        assert_eq!(drive(&mut store, 7, 5, Some(2), &mut ran), None);
        assert_eq!(
            drive(&mut store, 7, 5, Some(2), &mut ran),
            Some(clean.clone())
        );
        assert_eq!(ran, clean_ran, "each batch runs exactly once");
        // A finished store resumes to the same rollup without running
        // anything, even under a zero stop limit.
        assert_eq!(drive(&mut store, 7, 5, Some(0), &mut ran), Some(clean));
        assert_eq!(ran.len(), 5);
    }

    #[test]
    fn resume_scans_newest_first_and_ignores_foreign_digests() {
        let mut store = MemStore::default();
        store.save(0, 7, &toy(100)).unwrap();
        store.save(2, 7, &toy(1000)).unwrap();
        store.save(3, 8, &toy(5)).unwrap();
        let mut ran = Vec::new();
        let got = drive(&mut store, 7, 4, None, &mut ran).unwrap();
        // Resumed after batch 2 (newest valid), skipping batch 3's
        // checkpoint from another digest.
        assert_eq!(ran, vec![3]);
        let mut want = toy(1000);
        want.merge(&toy(4));
        assert_eq!(got, want);
        // Saves hold the cumulative rollup under the caller's digest.
        assert_eq!(store.load(3, 7), Some(want));
    }

    #[test]
    fn file_store_round_trips_and_rejects_mismatches() {
        let dir = temp_dir("toy");
        let mut store = FileStore::<Toy>::new(&dir, "t");
        let r = Toy {
            count: u64::MAX,
            sum: u128::MAX / 3,
            hist: [1 << 60, 0, 7],
        };
        store.save(1, 0xabc, &r).unwrap();
        assert_eq!(store.path(1), dir.join("toy-t-b1.json"));
        assert_eq!(store.load(1, 0xabc), Some(r.clone()));
        assert_eq!(store.load(1, 0xabd), None);
        assert_eq!(store.load(0, 0xabc), None);
        // No temp file is left behind.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, vec!["toy-t-b1.json".to_string()]);
        store.clear();
        assert_eq!(store.load(1, 0xabc), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_rejects_damaged_fields() {
        let good = encode(4, 9, &toy(3));
        assert_eq!(decode::<Toy>(&good, 4, 9), Ok(toy(3)));
        let damaged = [
            ("schema", Json::from("mosaic-other/v1")),
            ("count", Json::from(3.0)),
            ("count", Json::from("xyz")),
            (
                "count",
                Json::from(format!("{:x}", u128::from(u64::MAX) + 1)),
            ),
            ("hist", Json::Arr(vec![hex(1), hex(2)])),
            ("hist", Json::Arr(vec![hex(1), hex(2), Json::Null])),
            ("hist", hex(1)),
        ];
        for (key, value) in damaged {
            let mut doc = good.clone();
            doc.set(key, value);
            assert!(decode::<Toy>(&doc, 4, 9).is_err(), "{key} accepted");
        }
        let Json::Obj(mut pairs) = good.clone() else {
            unreachable!()
        };
        pairs.retain(|(k, _)| k != "sum");
        assert!(decode::<Toy>(&Json::Obj(pairs), 4, 9).is_err());
    }

    #[test]
    fn write_atomic_replaces_and_creates_the_directory() {
        let dir = temp_dir("atomic");
        let path = dir.join("sub").join("f9.json");
        write_atomic(&path, "one").unwrap();
        write_atomic(&path, "two").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");
        assert!(!dir.join("sub").join(".f9.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
