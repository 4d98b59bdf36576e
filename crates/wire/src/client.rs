//! A `bteq`-style client: the stand-in for the unchanged Teradata
//! application of the paper's experiments ("we used Teradata's bteq client
//! to submit queries to Hyper-Q", §7.2).
//!
//! The client speaks only WP-A (TDWP): it has no idea whether a real
//! Teradata or Hyper-Q answers — which is the entire point of ADV.

use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};

use hyperq_xtra::schema::Schema;
use hyperq_xtra::Row;

use crate::auth::digest;
use crate::message::{decode_client_row, schema_from_header, Message, WireError};

/// One result set (or DML acknowledgement) of a request.
#[derive(Debug, Clone)]
pub struct ClientResultSet {
    pub schema: Schema,
    pub rows: Vec<Row>,
    /// Rows returned or affected.
    pub activity_count: u64,
}

/// A connected TDWP session.
pub struct Client {
    /// Buffered, so a response of many small frames costs a few reads,
    /// not two per frame.
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    pub session_id: u64,
}

impl Client {
    /// Connect and run the logon handshake.
    pub fn connect(
        addr: impl ToSocketAddrs,
        user: &str,
        password: &str,
    ) -> Result<Client, WireError> {
        let stream = TcpStream::connect(addr)?;
        // A request, or an abort, is one small write the gateway should
        // see now, not after Nagle waits for the previous ACK.
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        use std::io::Write as _;

        Message::LogonRequest { user: user.to_string() }.write_to(&mut writer)?;
        writer.flush()?;
        let salt = match Message::read_from(&mut reader)? {
            Message::AuthChallenge { salt } => salt,
            Message::ErrorResponse { code, message } => {
                return Err(WireError::Protocol(format!(
                    "logon rejected: [{code}] {message}"
                )))
            }
            other => {
                return Err(WireError::Protocol(format!(
                    "expected AuthChallenge, got {other:?}"
                )))
            }
        };
        Message::LogonDigest { digest: digest(password, salt) }.write_to(&mut writer)?;
        writer.flush()?;
        let session_id = match Message::read_from(&mut reader)? {
            Message::LogonOk { session_id } => session_id,
            Message::ErrorResponse { code, message } => {
                return Err(WireError::Protocol(format!(
                    "logon failed: [{code}] {message}"
                )))
            }
            other => {
                return Err(WireError::Protocol(format!(
                    "expected LogonOk, got {other:?}"
                )))
            }
        };
        Ok(Client { reader, writer, session_id })
    }

    /// Submit a request (one or more statements) and collect all result
    /// sets. Statement errors surface as `Err`.
    pub fn run(&mut self, sql: &str) -> Result<Vec<ClientResultSet>, WireError> {
        self.request(Message::SqlRequest { sql: sql.to_string() })
    }

    /// Submit a request under a client-side response-time limit: the
    /// gateway cancels the statement when the limit expires and answers
    /// with wire code 3156, leaving the session usable.
    pub fn run_timed(
        &mut self,
        sql: &str,
        timeout: std::time::Duration,
    ) -> Result<Vec<ClientResultSet>, WireError> {
        let timeout_ms = timeout.as_millis().min(u32::MAX as u128) as u32;
        self.request(Message::SqlRequestTimed { timeout_ms, sql: sql.to_string() })
    }

    /// An out-of-band abort handle for this session: call
    /// [`Aborter::abort`] from another thread while `run` blocks to cancel
    /// the statement in flight (the gateway answers it with wire code
    /// 3110).
    pub fn aborter(&self) -> Result<Aborter, WireError> {
        Ok(Aborter { stream: self.reader.get_ref().try_clone()? })
    }

    fn request(&mut self, message: Message) -> Result<Vec<ClientResultSet>, WireError> {
        use std::io::Write as _;
        message.write_to(&mut self.writer)?;
        self.writer.flush()?;
        // (header columns, decoded schema, accumulated rows) of the result
        // set currently streaming in.
        type InFlight = (Vec<(String, u8)>, Schema, Vec<Row>);
        let mut results = Vec::new();
        let mut current: Option<InFlight> = None;
        let mut error: Option<String> = None;
        loop {
            match Message::read_from(&mut self.reader)? {
                Message::RecordSetHeader { columns } => {
                    let schema = schema_from_header(&columns);
                    current = Some((columns, schema, Vec::new()));
                }
                Message::Record { row_bytes } => match &mut current {
                    Some((columns, _, rows)) => {
                        rows.push(decode_client_row(&row_bytes, columns)?);
                    }
                    None => {
                        return Err(WireError::Protocol(
                            "Record before RecordSetHeader".into(),
                        ))
                    }
                },
                Message::StatementOk { activity_count } => {
                    let (schema, rows) = match current.take() {
                        Some((_, schema, rows)) => (schema, rows),
                        None => (Schema::empty(), Vec::new()),
                    };
                    results.push(ClientResultSet { schema, rows, activity_count });
                }
                Message::ErrorResponse { code, message } => {
                    // Keep the wire code visible: tests (and operators)
                    // distinguish shed (3135/3136), txn abort (2631) and
                    // plain statement failure (3807) by it.
                    error = Some(format!("[{code}] {message}"));
                }
                Message::EndRequest => break,
                other => {
                    return Err(WireError::Protocol(format!(
                        "unexpected message {other:?}"
                    )))
                }
            }
        }
        match error {
            Some(m) => Err(WireError::Protocol(m)),
            None => Ok(results),
        }
    }

    /// Close the session.
    pub fn logoff(mut self) -> Result<(), WireError> {
        use std::io::Write as _;
        Message::Logoff.write_to(&mut self.writer)?;
        self.writer.flush()?;
        Ok(())
    }
}

/// Out-of-band cancel handle for a [`Client`] session (the `ABORT` key of
/// a `bteq` user): a clone of the session socket that can inject an
/// [`Message::AbortRequest`] while the owning thread is blocked in
/// [`Client::run`].
pub struct Aborter {
    stream: TcpStream,
}

impl Aborter {
    /// Ask the gateway to cancel the request currently in flight on this
    /// session. The blocked `run` call returns the cancel error (wire code
    /// 3110); aborting an idle session is an acknowledged no-op.
    pub fn abort(&mut self) -> Result<(), WireError> {
        Message::AbortRequest.write_to(&mut self.stream)?;
        Ok(())
    }
}
