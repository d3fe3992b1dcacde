//! The `pixel-served` wire protocol: length-prefixed flat-JSON frames.
//!
//! Every frame on the loopback socket is a 4-byte big-endian length
//! followed by exactly that many bytes of one flat JSON object (the
//! same single-level object shape `pixel-obs` JSONL uses, parsed with
//! [`pixel_obs::parse_flat_object`] — no nested values, no escapes
//! needed for the numeric/identifier payloads here). Schemas:
//!
//! * `pixel.serve.request` — client → daemon: one inference request
//!   (`id`, `tenant`, `network`).
//! * `pixel.serve.ctrl` — client → daemon: control (`op":"drain"` ends
//!   intake; the daemon flushes its queue and answers with stats).
//! * `pixel.serve.response` — daemon → client: one request's outcome
//!   (`served` with its `batch` and nanosecond wait/service split, or
//!   `shed`).
//! * `pixel.serve.stats` — daemon → client: the end-of-run summary.

use std::io::{Read, Write};

/// Upper bound on a sane frame (1 MiB): anything larger is a protocol
/// error, not a real message.
pub const MAX_FRAME: usize = 1 << 20;

/// One inference request on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireRequest {
    /// Client-assigned request id (echoed back in the response).
    pub id: u64,
    /// Tenant index.
    pub tenant: usize,
    /// Network index.
    pub network: usize,
}

impl WireRequest {
    /// The request as a flat JSON frame body.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":\"pixel.serve.request\",\"id\":{},\"tenant\":{},\"network\":{}}}",
            self.id, self.tenant, self.network
        )
    }
}

/// What happened to one request, reported back to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireResponse {
    /// The client-assigned request id.
    pub id: u64,
    /// Batch sequence number (`served` only; 0 for shed requests).
    pub batch: u64,
    /// True when the request was served, false when it was shed.
    pub served: bool,
    /// Queue wait \[ns\] on the daemon clock (`served` only).
    pub wait_ns: u64,
    /// Service time \[ns\] on the daemon clock (`served` only).
    pub service_ns: u64,
}

impl WireResponse {
    /// The response as a flat JSON frame body.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":\"pixel.serve.response\",\"id\":{},\"outcome\":\"{}\",\"batch\":{},\"wait_ns\":{},\"service_ns\":{}}}",
            self.id,
            if self.served { "served" } else { "shed" },
            self.batch,
            self.wait_ns,
            self.service_ns
        )
    }
}

/// A client → daemon frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientFrame {
    /// One inference request.
    Request(WireRequest),
    /// End of intake: flush, answer stats, shut the connection down.
    Drain,
}

/// Parses one client frame body. `None` on anything malformed — the
/// daemon drops such frames rather than crashing.
#[must_use]
pub fn parse_client_frame(body: &str) -> Option<ClientFrame> {
    let fields = pixel_obs::parse_flat_object(body)?;
    let get = |k: &str| {
        fields
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
    };
    match get("schema")? {
        "pixel.serve.request" => Some(ClientFrame::Request(WireRequest {
            id: get("id")?.parse().ok()?,
            tenant: get("tenant")?.parse().ok()?,
            network: get("network")?.parse().ok()?,
        })),
        "pixel.serve.ctrl" if get("op") == Some("drain") => Some(ClientFrame::Drain),
        _ => None,
    }
}

/// Parses one daemon → client response body (`None` for stats or
/// malformed frames).
#[must_use]
pub fn parse_response(body: &str) -> Option<WireResponse> {
    let fields = pixel_obs::parse_flat_object(body)?;
    let get = |k: &str| {
        fields
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
    };
    if get("schema")? != "pixel.serve.response" {
        return None;
    }
    Some(WireResponse {
        id: get("id")?.parse().ok()?,
        batch: get("batch")?.parse().ok()?,
        served: get("outcome")? == "served",
        wait_ns: get("wait_ns")?.parse().ok()?,
        service_ns: get("service_ns")?.parse().ok()?,
    })
}

/// The drain control frame body.
#[must_use]
pub fn drain_frame() -> String {
    "{\"schema\":\"pixel.serve.ctrl\",\"op\":\"drain\"}".to_owned()
}

/// Writes one length-prefixed frame with a single `write_all`, so a
/// socket sends prefix and body together rather than as two segments.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame(writer: &mut impl Write, body: &str) -> std::io::Result<()> {
    let bytes = body.as_bytes();
    assert!(bytes.len() <= MAX_FRAME, "oversized frame");
    #[allow(clippy::cast_possible_truncation)]
    let len = (bytes.len() as u32).to_be_bytes();
    let mut frame = Vec::with_capacity(len.len() + bytes.len());
    frame.extend_from_slice(&len);
    frame.extend_from_slice(bytes);
    writer.write_all(&frame)
}

/// Reads one length-prefixed frame. `Ok(None)` on clean EOF at a frame
/// boundary.
///
/// # Errors
///
/// Propagates I/O errors; an oversized or non-UTF-8 frame is reported
/// as [`std::io::ErrorKind::InvalidData`].
pub fn read_frame(reader: &mut impl Read) -> std::io::Result<Option<String>> {
    let mut len = [0u8; 4];
    match reader.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_a_buffer() {
        let mut buf = Vec::new();
        let request = WireRequest {
            id: 7,
            tenant: 1,
            network: 4,
        };
        write_frame(&mut buf, &request.to_json()).unwrap();
        write_frame(&mut buf, &drain_frame()).unwrap();
        let mut cursor = &buf[..];
        let first = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(
            parse_client_frame(&first),
            Some(ClientFrame::Request(request))
        );
        let second = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(parse_client_frame(&second), Some(ClientFrame::Drain));
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    /// Counts the `write` calls a frame takes.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        let mut writes = Writes::default();
        write_frame(&mut writes, "{\"op\":\"drain\"}").unwrap();
        assert_eq!(writes.0.len(), 1, "prefix and body go out together");
        let mut cursor = &writes.0[0][..];
        let body = read_frame(&mut cursor).unwrap();
        assert_eq!(body.as_deref(), Some("{\"op\":\"drain\"}"));
    }

    #[test]
    fn responses_roundtrip() {
        let response = WireResponse {
            id: 9,
            batch: 3,
            served: true,
            wait_ns: 1_000,
            service_ns: 2_000,
        };
        assert_eq!(parse_response(&response.to_json()), Some(response));
        let shed = WireResponse {
            id: 2,
            batch: 0,
            served: false,
            wait_ns: 0,
            service_ns: 0,
        };
        assert_eq!(parse_response(&shed.to_json()), Some(shed));
        assert_eq!(parse_response(&drain_frame()), None);
    }

    #[test]
    fn malformed_frames_parse_to_none() {
        assert_eq!(parse_client_frame("not json"), None);
        assert_eq!(
            parse_client_frame("{\"schema\":\"pixel.serve.ctrl\",\"op\":\"x\"}"),
            None
        );
        assert_eq!(
            parse_client_frame(
                "{\"schema\":\"pixel.serve.request\",\"id\":-1,\"tenant\":0,\"network\":0}"
            ),
            None
        );
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(read_frame(&mut &oversized[..]).is_err());
    }
}
