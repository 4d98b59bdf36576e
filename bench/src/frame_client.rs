//! A frame-level TDWP client for the traced run, built on the public
//! `Message::{write_to, read_from}`. It does what `hyperq_wire::Client`
//! does, but keeps a clock reading at each boundary: request flushed, first
//! response frame, last response frame, rows decoded. Rows are decoded after
//! the last frame, not between frames, so streaming and decoding are
//! separate intervals.

use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use hyperq_wire::auth::digest;
use hyperq_wire::message::decode_client_row;
use hyperq_wire::{Message, WireError};
use hyperq_xtra::Row;

/// Counts the bytes the gateway sent.
struct CountingReader {
    inner: TcpStream,
    bytes: u64,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

pub struct FrameClient {
    reader: CountingReader,
    writer: BufWriter<TcpStream>,
}

/// One request's response and the clock readings around it.
pub struct Exchange {
    pub start: Instant,
    pub flushed: Instant,
    pub first_frame: Instant,
    pub last_frame: Instant,
    pub decoded: Instant,
    pub bytes_in: u64,
    /// `(rows, activity_count)` per result set.
    pub sets: Vec<(Vec<Row>, u64)>,
    /// `[code] message` when the gateway answered with an error.
    pub error: Option<String>,
}

fn protocol<T>(what: impl Into<String>) -> Result<T, WireError> {
    Err(WireError::Protocol(what.into()))
}

impl FrameClient {
    pub fn connect(addr: SocketAddr, user: &str, password: &str) -> Result<FrameClient, WireError> {
        let stream = TcpStream::connect(addr)?;
        let mut reader = CountingReader {
            inner: stream.try_clone()?,
            bytes: 0,
        };
        let mut writer = BufWriter::new(stream);
        Message::LogonRequest {
            user: user.to_string(),
        }
        .write_to(&mut writer)?;
        writer.flush()?;
        let salt = match Message::read_from(&mut reader)? {
            Message::AuthChallenge { salt } => salt,
            other => return protocol(format!("expected AuthChallenge, got {other:?}")),
        };
        Message::LogonDigest {
            digest: digest(password, salt),
        }
        .write_to(&mut writer)?;
        writer.flush()?;
        match Message::read_from(&mut reader)? {
            Message::LogonOk { .. } => Ok(FrameClient { reader, writer }),
            other => protocol(format!("expected LogonOk, got {other:?}")),
        }
    }

    pub fn request(&mut self, sql: &str) -> Result<Exchange, WireError> {
        let start = Instant::now();
        let bytes_before = self.reader.bytes;
        Message::SqlRequest {
            sql: sql.to_string(),
        }
        .write_to(&mut self.writer)?;
        self.writer.flush()?;
        let flushed = Instant::now();

        // Undecoded result sets: header columns and the raw record frames.
        type RawSet = (Vec<(String, u8)>, Vec<Vec<u8>>);
        let mut raw: Vec<(RawSet, u64)> = Vec::new();
        let mut current: Option<RawSet> = None;
        let mut error = None;
        let mut first_frame = None;
        loop {
            let message = Message::read_from(&mut self.reader)?;
            first_frame.get_or_insert_with(Instant::now);
            match message {
                Message::RecordSetHeader { columns } => current = Some((columns, Vec::new())),
                Message::Record { row_bytes } => match &mut current {
                    Some((_, rows)) => rows.push(row_bytes),
                    None => return protocol("Record before RecordSetHeader"),
                },
                Message::StatementOk { activity_count } => {
                    raw.push((current.take().unwrap_or_default(), activity_count));
                }
                Message::ErrorResponse { code, message } => {
                    error = Some(format!("[{code}] {message}"));
                }
                Message::EndRequest => break,
                other => return protocol(format!("unexpected message {other:?}")),
            }
        }
        let last_frame = Instant::now();

        let mut sets = Vec::with_capacity(raw.len());
        for ((columns, records), activity) in raw {
            let rows = records
                .iter()
                .map(|bytes| decode_client_row(bytes, &columns))
                .collect::<Result<Vec<Row>, WireError>>()?;
            sets.push((rows, activity));
        }
        let decoded = Instant::now();
        Ok(Exchange {
            start,
            flushed,
            first_frame: first_frame.unwrap_or(last_frame),
            last_frame,
            decoded,
            bytes_in: self.reader.bytes - bytes_before,
            sets,
            error,
        })
    }

    pub fn logoff(mut self) -> Result<(), WireError> {
        Message::Logoff.write_to(&mut self.writer)?;
        self.writer.flush()?;
        Ok(())
    }
}
