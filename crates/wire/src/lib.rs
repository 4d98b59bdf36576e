//! # hyperq-wire — wire-protocol virtualization
//!
//! The paper's claim that makes ADV more than a transpiler: applications
//! keep their *drivers and connectors* because Hyper-Q speaks the original
//! database's wire protocol end to end (§3.1 "support for native wire
//! protocols", §4.1 Protocol Handler).
//!
//! * [`message`] — TDWP, the simulated Teradata-like protocol (WP-A):
//!   framing, logon handshake messages, record-set messages, and the
//!   client-native binary row format (dates in Teradata integer encoding),
//! * [`auth`] — the salted challenge–response logon,
//! * [`tdf`] — the Tabular Data Format, Hyper-Q's internal binary batch
//!   representation (§4.5),
//! * [`mod@convert`] — the Result Converter (§4.6): TDF batches transcoded
//!   into client-format frames and streamed batch by batch (buffered with
//!   spill-to-disk for library callers),
//! * [`server`] — the TCP gateway: one Hyper-Q session per connection, with
//!   per-stage timing (the Figure 9 instrumentation),
//! * [`admission`] — bounded-FIFO admission queueing in front of the
//!   gateway's connection and statement caps,
//! * [`obs_http`] — a read-only HTTP observability endpoint on its own
//!   port: Prometheus metrics, per-statement provenance, live workload
//!   reports and the slow-query log, all served with plain `curl`,
//! * [`client`] — a `bteq`-style client for tests, examples and the stress
//!   benchmark.

#![forbid(unsafe_code)]

pub mod admission;
pub mod auth;
pub mod client;
pub mod convert;
pub mod message;
pub mod obs_http;
pub mod server;
pub mod tdf;

pub use admission::{AdmissionConfig, AdmissionGate, AdmissionPermit, ShedReason};
pub use obs_http::ObsHttpHandle;
pub use client::{Aborter, Client, ClientResultSet};
pub use convert::{convert, ConverterConfig};
pub use message::{Message, WireError};
pub use server::{Gateway, GatewayConfig, GatewayHandle, WireStats};
