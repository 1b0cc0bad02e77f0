//! The work, result and work-error frame bodies.
//!
//! Each body is a header line of tokens, a newline and a payload:
//!
//! * **Work**: index and unit hash, then `unit <WIRE_VERSION>` and the
//!   unit's canonical encoding ([`sea_campaign::encode_unit`]). Units
//!   travel as *content*: textual workloads as their spec string,
//!   harness-built inline applications fully inlined.
//! * **Result**: index and unit hash, then the exact
//!   [`sea_campaign::encode_result`] bytes (the cache-entry format).
//! * **WorkError**: the index, then the error message.
//!
//! A worker decodes the unit and recomputes [`sea_campaign::unit_hash`]:
//! the hash is FNV over the same encoding the coordinator sent, so a
//! dispatch whose hash disagrees is refused (the drift guard; see
//! [`decode_work`]).
//!
//! The token format is [`sea_opt::codec`]'s: whitespace-separated tokens,
//! floats as 16-hex-digit IEEE-754 bit patterns.

use sea_campaign::{decode_unit, encode_unit, unit_hash, ContentHash, Unit};
use sea_opt::codec::{self, CodecError, Tokens};

/// Version of the work and result bodies, carried on every work item's
/// unit line. It guards the unit encoding and the result entry a worker
/// returns ([`sea_campaign::encode_result`]): a worker from another build
/// refuses its first work item, before decoding the unit, instead of
/// sending results the coordinator cannot verify.
/// v2: the `scaled` app-ref production (campaign `deadline_scale`).
/// v3: simulate results carry the simulation summary only.
/// v4: the unit encoding is the one `unit_hash` covers; work-error
/// messages travel as plain text after the index line.
pub const WIRE_VERSION: u32 = 4;

fn err(msg: impl Into<String>) -> CodecError {
    CodecError(msg.into())
}

/// Encodes a [`FrameKind::Work`](crate::frame::FrameKind::Work) body: the
/// enumeration index, the unit's content hash, and the canonical unit.
#[must_use]
pub fn encode_work(index: usize, hash: ContentHash, unit: &Unit) -> String {
    format!("{index} {hash}\nunit {WIRE_VERSION} {}", encode_unit(unit))
}

/// Decodes a work body and enforces the drift guard: the recomputed
/// content hash of the decoded unit must equal the dispatched hash, or
/// the two builds disagree on what the unit *is* and the worker must
/// refuse rather than silently compute something else.
///
/// # Errors
///
/// [`CodecError`] for malformed bodies, a wire version this build does not
/// speak, or a hash mismatch.
pub fn decode_work(source: &str) -> Result<(usize, ContentHash, Unit), CodecError> {
    let (index, hash, unit_line) = split_head(source, "work")?;
    let (version, encoded) = unit_line
        .strip_prefix("unit ")
        .and_then(|rest| rest.split_once(' '))
        .ok_or_else(|| err("work body has no unit line"))?;
    if version.parse() != Ok(WIRE_VERSION) {
        return Err(err(format!(
            "unit wire version skew: stream has {version}, this build reads {WIRE_VERSION}"
        )));
    }
    let unit = decode_unit(encoded)?;
    let recomputed = unit_hash(&unit);
    if recomputed != hash {
        return Err(err(format!(
            "unit hash drift: dispatched {}, decoded unit hashes to {} — refusing the work item",
            hash.to_hex(),
            recomputed.to_hex()
        )));
    }
    Ok((index, hash, unit))
}

/// Encodes a [`FrameKind::Result`](crate::frame::FrameKind::Result)
/// body: index, unit hash, then the exact [`sea_campaign::encode_result`]
/// bytes (the cache-entry format, checksum and all).
#[must_use]
pub fn encode_result_body(index: usize, hash: ContentHash, entry: &str) -> String {
    let mut out = String::with_capacity(entry.len() + 64);
    codec::push_u64(&mut out, index as u64);
    codec::push_tok(&mut out, &hash.to_hex());
    out.push('\n');
    out.push_str(entry);
    out
}

/// Splits a result body into index, claimed unit hash and the raw entry
/// bytes. The entry itself is *not* trusted here — the coordinator
/// verifies it against the unit at `index` with
/// [`sea_campaign::decode_result`], which checks the embedded hash and
/// content checksum.
///
/// # Errors
///
/// [`CodecError`] for malformed headers.
pub fn decode_result_body(source: &str) -> Result<(usize, ContentHash, &str), CodecError> {
    split_head(source, "result")
}

/// Splits a work or result body into its header's index and unit hash
/// and the payload after the first newline.
fn split_head<'a>(
    source: &'a str,
    what: &str,
) -> Result<(usize, ContentHash, &'a str), CodecError> {
    let (head, payload) = source
        .split_once('\n')
        .ok_or_else(|| err(format!("{what} body has no payload")))?;
    let mut t = Tokens::new(head);
    let index = t.next_usize()?;
    let hash = ContentHash::parse_hex(t.next_tok()?)
        .ok_or_else(|| err(format!("malformed unit hash in {what} body")))?;
    t.finish()?;
    Ok((index, hash, payload))
}

/// Encodes a [`FrameKind::WorkError`](crate::frame::FrameKind::WorkError)
/// body: the enumeration index, a newline, then the error message.
#[must_use]
pub fn encode_work_error(index: usize, message: &str) -> String {
    format!("{index}\n{message}")
}

/// Decodes a work-error body.
///
/// # Errors
///
/// [`CodecError`] for malformed bodies.
pub fn decode_work_error(source: &str) -> Result<(usize, String), CodecError> {
    let (head, message) = source
        .split_once('\n')
        .ok_or_else(|| err("work-error body has no message"))?;
    let mut t = Tokens::new(head);
    let index = t.next_usize()?;
    t.finish()?;
    Ok((index, message.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_campaign::parse_campaign;

    fn sample_unit() -> Unit {
        parse_campaign("[scenario]\nkind = \"optimize\"\napps = \"mpeg2\"\ncores = \"4\"\n")
            .unwrap()
            .expand()
            .remove(0)
    }

    #[test]
    fn work_bodies_verify_the_hash_drift_guard() {
        let unit = sample_unit();
        let hash = unit_hash(&unit);
        let body = encode_work(3, hash, &unit);
        let (index, got_hash, got_unit) = decode_work(&body).unwrap();
        assert_eq!(index, 3);
        assert_eq!(got_hash, hash);
        assert_eq!(unit_hash(&got_unit), hash);
        // Flip the dispatched hash: the drift guard must refuse.
        let wrong = ContentHash(hash.0 ^ 1);
        let body = encode_work(3, wrong, &unit);
        let e = decode_work(&body).unwrap_err();
        assert!(e.to_string().contains("drift"), "{e}");
    }

    #[test]
    fn another_wire_version_is_refused_before_the_unit_is_decoded() {
        let head = format!("0 {}", unit_hash(&sample_unit()));
        // A work item from a version-3 build, and unit lines no build
        // could decode: the version check fires first.
        for (line, version) in [
            (
                "unit 3 0 x73 optimize spec x6d70656732 4 3 fast 0 1514",
                "3",
            ),
            ("unit 5 not a unit", "5"),
            ("unit x not a unit", "x"),
        ] {
            let e = decode_work(&format!("{head}\n{line}"))
                .unwrap_err()
                .to_string();
            assert!(
                e.contains(&format!(
                    "unit wire version skew: stream has {version}, this build reads {WIRE_VERSION}"
                )),
                "{e}"
            );
        }
    }

    #[test]
    fn malformed_bodies_are_errors_not_panics() {
        assert!(decode_work("no newline here").is_err());
        assert!(decode_work("notanumber deadbeef\nunit 1").is_err());
        let head = format!("0 {}\n", unit_hash(&sample_unit()).to_hex());
        for unit_line in ["", "unit", "unit 4", "unit4 2", "frobnicate 4 2"] {
            assert!(
                decode_work(&format!("{head}{unit_line}")).is_err(),
                "{unit_line}"
            );
        }
        assert!(decode_result_body("3").is_err());
        assert!(decode_work_error("3 not-a-string").is_err());
        assert!(decode_work_error("x\nmessage").is_err());
    }

    #[test]
    fn work_error_bodies_round_trip() {
        let body = encode_work_error(7, "scheduler exploded: \"cycle\"\nsecond line");
        let (index, message) = decode_work_error(&body).unwrap();
        assert_eq!(index, 7);
        assert_eq!(message, "scheduler exploded: \"cycle\"\nsecond line");
    }
}
