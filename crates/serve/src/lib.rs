//! `sea-serve` — the client side of the `sea-dist` coordinator daemon.
//!
//! The daemon itself lives in `sea-dist` ([`sea_dist::daemon`]): one
//! event loop that runs wire-submitted campaigns and in-process ones
//! alike over one shared worker fleet, deduplicates identical units
//! (one evaluation fans out to every interested campaign), shares one
//! content-addressed cache and one write-ahead journal directory
//! fleet-wide, and streams per-completion records to subscribed clients
//! in enumeration order. This crate re-exports it under its established
//! paths ([`run_daemon`], [`DaemonConfig`], [`DaemonReport`],
//! [`WorkerStats`], and the [`daemon`] module) and adds the [`client`]
//! verbs that speak the service dialect of protocol version 2
//! ([`sea_dist::frame::FrameKind::Submit`] and friends).
//!
//! Workers are unchanged `sea_dist::run_worker` processes — the worker
//! dialect (Hello / Work / Result / Heartbeat) is the same whichever way
//! the coordinator was started.
//!
//! The determinism contract carries over unweakened: every campaign's
//! streamed records and final report are byte-identical to the same
//! spec run locally with `campaign --jobs N`, regardless of worker
//! count, connection churn, daemon restarts (with a journal directory)
//! or other in-flight campaigns.

pub mod client;

pub use client::{cancel, status, stop, submit, submit_watch, SubmitOutcome};
pub use sea_dist::daemon;
pub use sea_dist::daemon::{run_daemon, DaemonConfig, DaemonReport, WorkerStats};

use sea_campaign::CampaignError;

/// Shorthand for transport-classified errors.
pub(crate) fn terr(msg: impl Into<String>) -> CampaignError {
    CampaignError::Transport(msg.into())
}
