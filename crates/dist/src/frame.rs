//! The length-prefixed frame protocol between coordinator and workers.
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! [len: u32 LE] [kind: u8] [body: len-1 bytes]
//! ```
//!
//! `len` counts the kind byte plus the body, so it is at least 1; lengths
//! above [`MAX_FRAME_LEN`] + 1 are rejected before any allocation. The
//! first frame on a connection must be [`FrameKind::Hello`] carrying the
//! handshake line `sea-dist <version>`; the coordinator answers with the
//! same line in a [`FrameKind::Welcome`] frame. **Compatibility rule**
//! (mirroring the campaign journal's): a version mismatch is refused with
//! both versions in the message — a worker may only serve a coordinator
//! speaking its exact protocol version.
//!
//! Reading is defensive by construction: torn frames surface as
//! [`FrameError::Io`], a clean close at a frame boundary as
//! [`FrameError::Closed`], and oversized lengths, unknown kinds or
//! malformed handshakes as [`FrameError::Malformed`] — never a panic and
//! never an unbounded allocation.

use std::io::{Read, Write};

/// Protocol version spoken by this build (handshake line).
///
/// History: version 1 was the worker dialect alone (kinds 1–8);
/// version 2 added the client-facing service frames (kinds 9+ — submit,
/// subscribe, status, cancel, stop) for the daemon. The
/// frame *grammar* and the unit encoding ([`crate::wire::WIRE_VERSION`])
/// are unchanged, but an old worker would see unknown kind bytes from a
/// new daemon's Refuse-with-status path, so the exact-match rule bumps.
pub const PROTOCOL_VERSION: u32 = 2;

/// Magic token opening every handshake line.
pub const HANDSHAKE_MAGIC: &str = "sea-dist";

/// Upper bound on a frame body, bytes (a result frame carries one full
/// encoded unit result; the largest realistic ones are random-mapping
/// sweeps, tens of kilobytes at the builtins' 120 mappings).
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Worker → coordinator: handshake line, first frame on a connection.
    Hello = 1,
    /// Coordinator → worker: handshake accepted.
    Welcome = 2,
    /// Coordinator → worker: one unit work item ([`crate::wire`]).
    Work = 3,
    /// Worker → coordinator: one completed unit result.
    Result = 4,
    /// Worker → coordinator: liveness while evaluating.
    Heartbeat = 5,
    /// Coordinator → worker: campaign complete, disconnect cleanly.
    Shutdown = 6,
    /// Either direction: the peer violated the protocol; body is the
    /// reason, connection closes after.
    Refuse = 7,
    /// Worker → coordinator: a dispatched unit failed hard (body:
    /// [`crate::wire::encode_work_error`]).
    WorkError = 8,
    /// Client → daemon: submit a campaign spec (body: handshake line,
    /// newline, spec text). First frame on a client connection.
    Submit = 9,
    /// Daemon → client: submission accepted (body:
    /// `<campaign_id> <spec_hash_hex> <n_units>`).
    Accepted = 10,
    /// Client → daemon: stream a campaign's per-completion records
    /// (body: handshake line, newline, campaign id). First frame on a
    /// client connection.
    Subscribe = 11,
    /// Daemon → client: one JSONL per-completion record line, released
    /// in enumeration order.
    Record = 12,
    /// Daemon → client: the campaign's final JSONL report; closes the
    /// subscription.
    Report = 13,
    /// Client → daemon: request per-campaign progress and per-worker
    /// stats (body: handshake line). First frame on a client connection.
    Status = 14,
    /// Daemon → client: the status report (JSON body).
    StatusReport = 15,
    /// Client → daemon: cancel a campaign (body: handshake line,
    /// newline, campaign id). First frame on a client connection.
    Cancel = 16,
    /// Daemon → client: a client verb finished (body: human-readable
    /// outcome).
    Done = 17,
    /// Client → daemon: shut the daemon down cleanly after releasing the
    /// fleet (body: handshake line). First frame on a client connection.
    Stop = 18,
}

impl FrameKind {
    /// Decodes a kind byte.
    #[must_use]
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::Welcome),
            3 => Some(FrameKind::Work),
            4 => Some(FrameKind::Result),
            5 => Some(FrameKind::Heartbeat),
            6 => Some(FrameKind::Shutdown),
            7 => Some(FrameKind::Refuse),
            8 => Some(FrameKind::WorkError),
            9 => Some(FrameKind::Submit),
            10 => Some(FrameKind::Accepted),
            11 => Some(FrameKind::Subscribe),
            12 => Some(FrameKind::Record),
            13 => Some(FrameKind::Report),
            14 => Some(FrameKind::Status),
            15 => Some(FrameKind::StatusReport),
            16 => Some(FrameKind::Cancel),
            17 => Some(FrameKind::Done),
            18 => Some(FrameKind::Stop),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind.
    pub kind: FrameKind,
    /// Message body (kind-specific; see [`crate::wire`]).
    pub body: Vec<u8>,
}

impl Frame {
    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] for non-UTF-8 bodies.
    pub fn text(&self) -> Result<&str, FrameError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| FrameError::Malformed("frame body is not UTF-8".into()))
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The connection failed mid-frame (torn frame, reset, timeout).
    Io(std::io::Error),
    /// The bytes do not form a frame this protocol version accepts
    /// (oversized length, unknown kind, malformed handshake).
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "connection error: {e}"),
            FrameError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame (length prefix, kind byte, body) and flushes.
///
/// # Errors
///
/// Propagates I/O failures; refuses bodies over [`MAX_FRAME_LEN`].
pub fn write_frame(w: &mut impl Write, kind: FrameKind, body: &[u8]) -> std::io::Result<()> {
    let Ok(body_len) = u32::try_from(body.len()) else {
        return Err(std::io::Error::other("frame body too large"));
    };
    if body_len > MAX_FRAME_LEN {
        return Err(std::io::Error::other(format!(
            "frame body of {body_len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    let len = body_len + 1; // kind byte
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&[kind as u8])?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one frame.
///
/// # Errors
///
/// [`FrameError::Closed`] on a clean close at a frame boundary,
/// [`FrameError::Io`] on a torn frame, [`FrameError::Malformed`] for
/// zero/oversized lengths or unknown kind bytes.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut header = [0u8; 4];
    // Distinguish a clean close (0 bytes at a frame boundary) from a torn
    // header: read the first byte separately.
    match r.read(&mut header[..1]) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(_) => {}
        Err(e) => return Err(FrameError::Io(e)),
    }
    r.read_exact(&mut header[1..]).map_err(FrameError::Io)?;
    let len = u32::from_le_bytes(header);
    if len == 0 {
        return Err(FrameError::Malformed("zero-length frame".into()));
    }
    if len > MAX_FRAME_LEN + 1 {
        return Err(FrameError::Malformed(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    let mut kind_byte = [0u8; 1];
    r.read_exact(&mut kind_byte).map_err(FrameError::Io)?;
    let Some(kind) = FrameKind::from_u8(kind_byte[0]) else {
        return Err(FrameError::Malformed(format!(
            "unknown frame kind {}",
            kind_byte[0]
        )));
    };
    let mut body = vec![0u8; len as usize - 1];
    r.read_exact(&mut body).map_err(FrameError::Io)?;
    Ok(Frame { kind, body })
}

/// The handshake line both sides exchange.
#[must_use]
pub fn handshake_line() -> String {
    format!("{HANDSHAKE_MAGIC} {PROTOCOL_VERSION}")
}

/// Parses and checks a handshake line, enforcing the compatibility rule.
///
/// # Errors
///
/// A message naming both versions on skew, or describing the malformation.
pub fn check_handshake(body: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "handshake is not UTF-8".to_string())?;
    let mut parts = text.split_whitespace();
    match parts.next() {
        Some(HANDSHAKE_MAGIC) => {}
        other => return Err(format!("not a sea-dist handshake (got `{other:?}`)")),
    }
    let version: u32 = parts
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "handshake carries no version".to_string())?;
    if parts.next().is_some() {
        return Err("trailing tokens after the handshake version".into());
    }
    if version != PROTOCOL_VERSION {
        return Err(format!(
            "protocol version skew: peer speaks {version}, this build speaks {PROTOCOL_VERSION}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(kind: FrameKind, body: &[u8]) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind, body).unwrap();
        read_frame(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn frames_round_trip() {
        for kind in [
            FrameKind::Hello,
            FrameKind::Welcome,
            FrameKind::Work,
            FrameKind::Result,
            FrameKind::Heartbeat,
            FrameKind::Shutdown,
            FrameKind::Refuse,
            FrameKind::WorkError,
            FrameKind::Submit,
            FrameKind::Accepted,
            FrameKind::Subscribe,
            FrameKind::Record,
            FrameKind::Report,
            FrameKind::Status,
            FrameKind::StatusReport,
            FrameKind::Cancel,
            FrameKind::Done,
            FrameKind::Stop,
        ] {
            let f = round_trip(kind, b"payload \x00 bytes");
            assert_eq!(f.kind, kind);
            assert_eq!(f.body, b"payload \x00 bytes");
        }
        assert_eq!(round_trip(FrameKind::Heartbeat, b"").body, b"");
    }

    #[test]
    fn clean_close_torn_frames_and_garbage_are_errors_not_panics() {
        // Clean close at a frame boundary.
        assert!(matches!(
            read_frame(&mut [].as_slice()),
            Err(FrameError::Closed)
        ));
        // Every proper prefix of a valid frame is a torn frame.
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Work, b"0 abc unit body").unwrap();
        for cut in 1..buf.len() {
            match read_frame(&mut &buf[..cut]) {
                Err(FrameError::Io(_)) => {}
                other => panic!("prefix of {cut} bytes: {other:?}"),
            }
        }
        // Zero length.
        assert!(matches!(
            read_frame(&mut [0, 0, 0, 0].as_slice()),
            Err(FrameError::Malformed(_))
        ));
        // Oversized length must be rejected before allocating.
        let huge = u32::MAX.to_le_bytes();
        assert!(matches!(
            read_frame(&mut huge.as_slice()),
            Err(FrameError::Malformed(_))
        ));
        // Unknown kind byte.
        let mut bad = Vec::new();
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0xEE, 0x00]);
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn deterministic_garbage_streams_never_panic() {
        // A cheap xorshift fuzz over raw byte streams: every outcome must
        // be Ok or Err, never a panic or an unbounded allocation.
        let mut state = 0x5EA0_D15Cu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2000 {
            let len = (next() % 64) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| (next() & 0xFF) as u8).collect();
            let _ = read_frame(&mut bytes.as_slice());
        }
    }

    #[test]
    fn handshake_enforces_magic_and_version() {
        assert!(check_handshake(handshake_line().as_bytes()).is_ok());
        assert!(check_handshake(b"sea-fish 1").is_err());
        assert!(check_handshake(b"sea-dist").is_err());
        assert!(check_handshake(b"sea-dist x").is_err());
        assert!(check_handshake(b"sea-dist 2 extra").is_err());
        assert!(check_handshake(&[0xFF, 0xFE]).is_err());
        // Version 1 (the pre-service dialect) is refused, naming both.
        assert!(check_handshake(b"sea-dist 1").is_err());
        let skew = check_handshake(b"sea-dist 999").unwrap_err();
        assert!(skew.contains("999") && skew.contains('2'), "{skew}");
    }
}
