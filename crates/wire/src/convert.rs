//! The Result Converter (paper §4.6).
//!
//! "TDF packets are unwrapped by Result Converter to extract result rows
//! and convert them into the binary format of the original database. …
//! When the result size is very large, the buffered results may not fit in
//! memory. In this case, the Result Converter spills the buffered results
//! into disk and maintains the set of generated spill files until result
//! consumption is done."
//!
//! One core, [`stream`], converts a result batch by batch: `tdf::encode`,
//! then `tdf::transcode` into framed client `Record` messages, then a
//! [`BatchSink`]. The gateway's sink is the session's socket, so it holds
//! one converted batch at a time and batch *i* is on the wire while batch
//! *i + 1* converts. [`convert`] feeds the same core into a store that
//! spills to disk past its memory budget, for library callers that want
//! the whole result first. The paper converts in parallel; here each
//! session converts on its own thread (DESIGN.md §12 has the measurement).

use std::fs::File;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use hyperq_xtra::schema::Schema;
use hyperq_xtra::Row;

use crate::message::{header_columns, WireError};
use crate::tdf;

/// Converter tuning.
#[derive(Debug, Clone)]
pub struct ConverterConfig {
    /// Rows per TDF batch fetched from the ODBC-server abstraction.
    pub batch_size: usize,
    /// Converted bytes [`convert`] holds in memory before spilling to disk.
    pub memory_budget: usize,
    /// Directory for spill files.
    pub spill_dir: PathBuf,
}

impl Default for ConverterConfig {
    fn default() -> Self {
        ConverterConfig {
            batch_size: 1024,
            memory_budget: 64 * 1024 * 1024,
            spill_dir: std::env::temp_dir(),
        }
    }
}

/// Where [`stream`] delivers a converted result.
pub trait BatchSink {
    /// The result's header columns, once, before any batch — and only once
    /// the statement is known live and the schema representable, so no
    /// refusal ever follows a header.
    fn header(&mut self, columns: Vec<(String, u8)>) -> std::io::Result<()>;
    /// One batch of back-to-back framed `Record` messages. The sink may
    /// take the buffer; [`stream`] clears it before the next batch.
    fn batch(&mut self, frames: &mut Vec<u8>) -> std::io::Result<()>;
}

/// What [`stream`] delivered.
#[derive(Debug, Clone, Copy, Default)]
pub struct Streamed {
    pub rows: u64,
    /// Client-format row bytes, excluding frame headers.
    pub bytes: u64,
    /// Encoding and transcoding time summed over batches; the sink's time
    /// (socket writes, spills) is not in it.
    pub converting: Duration,
}

/// Convert a backend result into `sink`, `config.batch_size` rows at a
/// time: package them into a TDF batch (the ODBC-server hand-off, paper
/// §4.5), transcode it into client `Record` frames, hand those over. Under
/// the statement's governor (when one is installed on this thread) a
/// statement cancelled before the header gets no header, and one cancelled
/// mid-stream stops at the next batch. Conversion failures and cancels are
/// [`WireError::Protocol`]; the sink's are [`WireError::Io`].
pub fn stream(
    schema: &Schema,
    rows: &[Row],
    config: &ConverterConfig,
    sink: &mut impl BatchSink,
) -> Result<Streamed, WireError> {
    let refuse = |e: &dyn std::fmt::Display| WireError::Protocol(e.to_string());
    let checkpoint = || hyperq_governor::checkpoint().map_err(|c| refuse(&c));
    checkpoint()?;
    tdf::check_schema(schema).map_err(|e| refuse(&e))?;
    sink.header(header_columns(schema))?;
    let mut streamed = Streamed::default();
    let (mut batch, mut frames) = (Vec::new(), Vec::new());
    for chunk in rows.chunks(config.batch_size.max(1)) {
        checkpoint()?;
        let t = Instant::now();
        batch.clear();
        frames.clear();
        tdf::encode_into(schema, chunk, &mut batch).map_err(|e| refuse(&e))?;
        let n = tdf::transcode(&batch, &mut frames).map_err(|e| refuse(&e))?;
        streamed.converting += t.elapsed();
        streamed.rows += n;
        streamed.bytes += frames.len() as u64 - 5 * n;
        sink.batch(&mut frames)?;
    }
    Ok(streamed)
}

/// [`stream`] wrapped in observability: emits a `convert` span (attached to
/// `trace` when the statement's pipeline trace is known), records the
/// conversion time in the shared per-stage histogram family and attaches
/// the result's size to the statement's provenance record.
pub fn stream_traced(
    schema: &Schema,
    rows: &[Row],
    config: &ConverterConfig,
    obs: &hyperq_obs::ObsContext,
    trace: Option<hyperq_obs::TraceId>,
    sink: &mut impl BatchSink,
) -> Result<Streamed, WireError> {
    let span = match trace {
        Some(t) => obs.traces.enter_in(t, "convert"),
        None => obs.traces.enter("convert"),
    };
    let result = stream(schema, rows, config, sink);
    span.finish();
    if let Ok(s) = &result {
        obs.metrics
            .histogram(hyperq_core::STAGE_DURATION_METRIC, &[("stage", "convert")])
            .record(s.converting);
        // The statement's provenance record was sealed when the pipeline
        // returned; conversion happens afterwards, so its stats are
        // attached to the existing record by trace id.
        if let Some(t) = trace {
            obs.provenance.attach_convert(t, s.rows, s.bytes, s.converting);
        }
    }
    result
}

/// RAII handle to one spill file: the file is deleted when the handle
/// drops — after streaming, on partial consumption, on an error mid-spill,
/// and when a `ConvertedResult` is abandoned without being read. No path
/// escapes this type, so no code path can forget the cleanup.
struct SpillFile(PathBuf);

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One converted batch of framed `Record` messages, in memory or spilled.
enum Chunk {
    Mem(Vec<u8>),
    Spilled(SpillFile),
}

/// The converted result, ready for the Protocol Handler to package into
/// network messages.
pub struct ConvertedResult {
    pub header: Vec<(String, u8)>,
    pub total_rows: u64,
    /// Converted client-format payload bytes (excluding frame headers).
    pub total_bytes: u64,
    chunks: Vec<Chunk>,
    pub spilled_chunks: usize,
}

impl ConvertedResult {
    /// Stream every converted row, reading spill files back on demand.
    /// Spill files are deleted by their `SpillFile` guards — as each
    /// chunk finishes streaming, and for the rest when `self` drops on an
    /// early error.
    pub fn for_each_row(
        mut self,
        mut f: impl FnMut(&[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        for chunk in self.chunks.drain(..) {
            let mut data = Vec::new();
            let mut frames: &[u8] = match &chunk {
                Chunk::Mem(frames) => frames,
                Chunk::Spilled(spill) => {
                    File::open(&spill.0)?.read_to_end(&mut data)?;
                    &data
                }
            };
            while let Some(head) = frames.get(..5) {
                let end = 5 + u32::from_le_bytes([head[1], head[2], head[3], head[4]]) as usize;
                let row = frames.get(5..end).ok_or_else(|| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "truncated spilled row")
                })?;
                f(row)?;
                frames = &frames[end..];
            }
        }
        Ok(())
    }
}

/// [`convert`]'s sink: keeps batches in memory within the budget and spills
/// the rest. Under a governor the in-memory bytes are also charged against
/// the query's ledger (and the gateway-global pool); a batch the ledger
/// refuses is spilled instead of killing the query — spilling *earlier*
/// under pressure is the graceful degradation, the budget kill is reserved
/// for allocations that cannot degrade (engine state).
struct Store<'a> {
    config: &'a ConverterConfig,
    governor: Option<std::sync::Arc<hyperq_governor::QueryGovernor>>,
    result: ConvertedResult,
    in_memory: usize,
}

impl BatchSink for Store<'_> {
    fn header(&mut self, columns: Vec<(String, u8)>) -> std::io::Result<()> {
        self.result.header = columns;
        Ok(())
    }

    fn batch(&mut self, frames: &mut Vec<u8>) -> std::io::Result<()> {
        let bytes = frames.len();
        let charged = self.in_memory + bytes <= self.config.memory_budget
            && match &self.governor {
                // `ResourceLedger::charge` (not `QueryGovernor::charge`):
                // a denial here must NOT cancel the query, just spill.
                Some(g) => g.ledger().charge(bytes as u64).is_ok(),
                None => true,
            };
        let chunks = &mut self.result.chunks;
        if charged {
            self.in_memory += bytes;
            chunks.push(Chunk::Mem(std::mem::take(frames)));
            return Ok(());
        }
        let path = self.config.spill_dir.join(format!(
            "hyperq_spill_{}_{}_{}.rows",
            std::process::id(),
            crate::auth::fresh_salt(),
            chunks.len()
        ));
        // The guard exists before the first byte is written: if this write
        // (or a later batch's) fails, dropping the store removes every file
        // already on disk.
        let mut file = File::create(&path)?;
        chunks.push(Chunk::Spilled(SpillFile(path)));
        file.write_all(frames)?;
        self.result.spilled_chunks += 1;
        Ok(())
    }
}

/// Convert a whole backend result into client row frames, buffered in
/// memory up to the budget and spilled to disk beyond it.
pub fn convert(
    schema: &Schema,
    rows: &[Row],
    config: &ConverterConfig,
) -> Result<ConvertedResult, String> {
    convert_with(config, |store| stream(schema, rows, config, store))
}

/// [`convert`] through [`stream_traced`].
pub fn convert_traced(
    schema: &Schema,
    rows: &[Row],
    config: &ConverterConfig,
    obs: &hyperq_obs::ObsContext,
    trace: Option<hyperq_obs::TraceId>,
) -> Result<ConvertedResult, String> {
    convert_with(config, |store| stream_traced(schema, rows, config, obs, trace, store))
}

fn convert_with(
    config: &ConverterConfig,
    run: impl FnOnce(&mut Store) -> Result<Streamed, WireError>,
) -> Result<ConvertedResult, String> {
    let mut store = Store {
        config,
        governor: hyperq_governor::current(),
        result: ConvertedResult {
            header: Vec::new(),
            total_rows: 0,
            total_bytes: 0,
            chunks: Vec::new(),
            spilled_chunks: 0,
        },
        in_memory: 0,
    };
    let streamed = run(&mut store).map_err(|e| e.to_string())?;
    store.result.total_rows = streamed.rows;
    store.result.total_bytes = streamed.bytes;
    Ok(store.result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperq_xtra::datum::Datum;
    use hyperq_xtra::schema::Field;
    use hyperq_xtra::types::SqlType;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new(None, "K", SqlType::Integer, true),
            Field::new(None, "V", SqlType::Varchar(None), true),
        ])
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| vec![Datum::Int(i as i64), Datum::str(format!("value-{i}"))])
            .collect()
    }

    fn collect(result: ConvertedResult) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        result
            .for_each_row(|r| {
                frames.push(r.to_vec());
                Ok(())
            })
            .unwrap();
        frames
    }

    #[test]
    fn rows_arrive_whole_and_in_order_across_batches() {
        let result = convert(
            &schema(),
            &rows(5000),
            &ConverterConfig { batch_size: 256, ..Default::default() },
        )
        .unwrap();
        assert_eq!(result.total_rows, 5000);
        let header = result.header.clone();
        let back: Vec<Row> = collect(result)
            .iter()
            .map(|r| crate::message::decode_client_row(r, &header).unwrap())
            .collect();
        assert_eq!(back, rows(5000));
    }

    /// Counts the calls a sink received.
    struct Calls(usize);

    impl BatchSink for Calls {
        fn header(&mut self, _: Vec<(String, u8)>) -> std::io::Result<()> {
            self.0 += 1;
            Ok(())
        }

        fn batch(&mut self, _: &mut Vec<u8>) -> std::io::Result<()> {
            self.0 += 1;
            Ok(())
        }
    }

    #[test]
    fn cancelled_statement_gets_no_header() {
        let gov = hyperq_governor::QueryGovernor::standalone(None, 0);
        gov.cancel(hyperq_governor::CancelReason::ClientAbort, "test");
        let _scope = hyperq_governor::install(gov);
        let mut sink = Calls(0);
        let err = stream(&schema(), &rows(10), &ConverterConfig::default(), &mut sink).unwrap_err();
        assert!(err.to_string().contains("client_abort"), "{err}");
        assert_eq!(sink.0, 0);
    }

    #[test]
    fn oversized_schema_is_refused_before_the_header() {
        let wide = Schema::new(vec![Field::new(None, &"N".repeat(70_000), SqlType::Integer, true)]);
        let mut sink = Calls(0);
        let err = stream(&wide, &[], &ConverterConfig::default(), &mut sink).unwrap_err();
        assert!(err.to_string().contains("column name"), "{err}");
        assert_eq!(sink.0, 0);
    }

    #[test]
    fn spills_past_memory_budget_and_replays_identically() {
        let schema = schema();
        let data = rows(2000);
        let unspilled = convert(
            &schema,
            &data,
            &ConverterConfig { batch_size: 100, ..Default::default() },
        )
        .unwrap();
        let spilled = convert(
            &schema,
            &data,
            &ConverterConfig {
                batch_size: 100,
                memory_budget: 4096, // force spilling after a couple of chunks
                ..Default::default()
            },
        )
        .unwrap();
        assert!(spilled.spilled_chunks > 0, "budget must force spilling");
        assert_eq!(collect(unspilled), collect(spilled));
    }

    #[test]
    fn empty_result() {
        let r = convert(&schema(), &[], &ConverterConfig::default()).unwrap();
        assert_eq!(r.total_rows, 0);
        assert!(collect(r).is_empty());
    }

    /// A fresh directory only this test writes to, so emptiness checks are
    /// exact instead of counting against a shared temp dir.
    fn private_spill_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hyperq_spill_test_{tag}_{}_{}",
            std::process::id(),
            crate::auth::fresh_salt()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spilling_config(dir: &std::path::Path) -> ConverterConfig {
        ConverterConfig {
            batch_size: 50,
            memory_budget: 0, // every chunk spills
            spill_dir: dir.to_path_buf(),
        }
    }

    fn assert_empty(dir: &std::path::Path) {
        assert_eq!(std::fs::read_dir(dir).unwrap().count(), 0, "spill files left behind");
        let _ = std::fs::remove_dir(dir);
    }

    #[test]
    fn spill_files_removed_after_consumption() {
        let dir = private_spill_dir("consumed");
        let result = convert(&schema(), &rows(1000), &spilling_config(&dir)).unwrap();
        assert!(result.spilled_chunks > 0);
        assert_eq!(collect(result).len(), 1000);
        assert_empty(&dir);
    }

    #[test]
    fn spill_dir_empty_after_failed_consumption() {
        let dir = private_spill_dir("failed");
        let result = convert(&schema(), &rows(1000), &spilling_config(&dir)).unwrap();
        assert!(result.spilled_chunks > 1, "need several spill files on disk");
        // The consumer dies mid-stream: the chunk being streamed AND the
        // chunks never reached must all be cleaned up by their guards.
        let err = result
            .for_each_row(|_| Err(std::io::Error::other("client hung up")))
            .unwrap_err();
        assert_eq!(err.to_string(), "client hung up");
        assert_empty(&dir);
    }

    #[test]
    fn spill_dir_empty_after_unconsumed_result_drops() {
        let dir = private_spill_dir("dropped");
        let result = convert(&schema(), &rows(1000), &spilling_config(&dir)).unwrap();
        assert!(result.spilled_chunks > 0);
        assert!(std::fs::read_dir(&dir).unwrap().count() > 0, "files exist while live");
        drop(result);
        assert_empty(&dir);
    }
}
