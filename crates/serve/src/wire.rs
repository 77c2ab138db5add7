//! The wire protocol: length-prefixed JSON frames and the request /
//! response vocabulary.
//!
//! A frame is `<len>:<json>\n` — the payload's byte length in ASCII
//! decimal, a colon, the JSON document, and a terminating newline. The
//! prefix lets a reader allocate exactly once and never scan JSON for
//! frame boundaries; the newline keeps captures greppable and makes a
//! torn frame detectable.

use std::io::Write as _;

use rbr_obs::json::{self, Json};

/// Upper bound on a single frame payload; anything larger is a protocol
/// error, not a buffering request.
pub const MAX_FRAME: usize = 64 * 1024;

/// What the admission controller decided for one submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Admitted with more than one copy.
    Redundant,
    /// Admitted with a single copy (load too high for redundancy).
    Single,
    /// Rejected outright: the rate limiter had no token for even one
    /// copy.
    Shed,
}

impl Verdict {
    /// Stable wire / log spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Redundant => "redundant",
            Verdict::Single => "single",
            Verdict::Shed => "shed",
        }
    }

    fn parse(s: &str) -> Option<Verdict> {
        match s {
            "redundant" => Some(Verdict::Redundant),
            "single" => Some(Verdict::Single),
            "shed" => Some(Verdict::Shed),
            _ => None,
        }
    }
}

/// Client → server messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit one job. `arrival_secs` is the job's position on the
    /// workload's clock; in virtual-clock mode it *is* the service
    /// clock.
    Submit {
        /// Client-chosen job id, echoed in the ack.
        id: u64,
        /// Arrival instant (seconds on the workload clock).
        arrival_secs: f64,
        /// Nodes requested.
        nodes: u32,
        /// Requested runtime (seconds).
        runtime_secs: f64,
    },
    /// Cancel a previously submitted job's redundant copies.
    Cancel {
        /// The job id being cancelled.
        id: u64,
        /// Cancel instant (seconds on the workload clock).
        arrival_secs: f64,
    },
    /// Flush everything, report totals, and shut the service down.
    Drain,
}

/// Server → client messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A submission's admission outcome. Sent when the op's transaction
    /// flushes (shed submissions never join a transaction and are acked
    /// immediately with `txn = 0`).
    Ack {
        /// The submitted job id.
        id: u64,
        /// Copies admitted (0 when shed).
        redundancy: u32,
        /// Admission verdict.
        verdict: Verdict,
        /// Transaction serial the op rode in (0 when shed).
        txn: u64,
    },
    /// A cancel's transaction receipt.
    CancelAck {
        /// The cancelled job id.
        id: u64,
        /// Transaction serial the cancel rode in.
        txn: u64,
    },
    /// Terminal drain report.
    Drained {
        /// Submissions received over the service's lifetime.
        submits: u64,
        /// Acks sent (must equal `submits` + cancels for a clean drain).
        acks: u64,
        /// Transactions dispatched.
        transactions: u64,
        /// Submissions shed by the rate limiter.
        shed: u64,
    },
}

impl Request {
    /// Renders as a JSON document (no framing).
    pub fn to_json(&self) -> String {
        match self {
            Request::Submit {
                id,
                arrival_secs,
                nodes,
                runtime_secs,
            } => Json::obj(vec![
                ("type", Json::Str("submit".to_string())),
                ("id", Json::Num(*id as f64)),
                ("arrival", Json::Num(*arrival_secs)),
                ("nodes", Json::Num(f64::from(*nodes))),
                ("runtime", Json::Num(*runtime_secs)),
            ])
            .render(),
            Request::Cancel { id, arrival_secs } => Json::obj(vec![
                ("type", Json::Str("cancel".to_string())),
                ("id", Json::Num(*id as f64)),
                ("arrival", Json::Num(*arrival_secs)),
            ])
            .render(),
            Request::Drain => Json::obj(vec![("type", Json::Str("drain".to_string()))]).render(),
        }
    }

    /// Parses a JSON document into a request.
    pub fn from_json(text: &str) -> Result<Request, String> {
        let v = Json::parse(text)?;
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or("request missing \"type\"")?;
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("request missing numeric {key:?}"))
        };
        let id = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("request missing integer {key:?}"))
        };
        match kind {
            "submit" => Ok(Request::Submit {
                id: id("id")?,
                arrival_secs: num("arrival")?,
                nodes: id("nodes")? as u32,
                runtime_secs: num("runtime")?,
            }),
            "cancel" => Ok(Request::Cancel {
                id: id("id")?,
                arrival_secs: num("arrival")?,
            }),
            "drain" => Ok(Request::Drain),
            other => Err(format!("unknown request type {other:?}")),
        }
    }
}

impl Response {
    /// Renders as a JSON document (no framing).
    pub fn to_json(&self) -> String {
        let mut out = Vec::new();
        self.write_json(&mut out);
        String::from_utf8(out).expect("responses render as ASCII")
    }

    /// Appends this response as one `<len>:<json>\n` frame, the bytes
    /// of `encode_frame(&self.to_json())`, without building a string.
    pub fn write_frame(&self, out: &mut Vec<u8>) {
        let start = out.len();
        self.write_json(out);
        let len = out.len() - start;
        // The length is known only once the payload is written: append
        // the prefix, then rotate it in front of the payload.
        let _ = write!(out, "{len}:");
        let prefix = out.len() - start - len;
        out[start..].rotate_right(prefix);
        out.push(b'\n');
    }

    /// Writes the JSON document straight into `out`. The bytes are those
    /// [`Json::render`] gives for the same object: keys in sorted order,
    /// numbers in `f64` display form, strings needing no escapes.
    fn write_json(&self, out: &mut Vec<u8>) {
        let num = |out: &mut Vec<u8>, key: &str, x: f64| {
            let _ = write!(out, "\"{key}\":{},", json::Float(x, "null"));
        };
        out.push(b'{');
        match self {
            Response::Ack {
                id,
                redundancy,
                verdict,
                txn,
            } => {
                num(out, "id", *id as f64);
                num(out, "redundancy", f64::from(*redundancy));
                num(out, "txn", *txn as f64);
                let _ = write!(out, "\"type\":\"ack\",\"verdict\":\"{}\"", verdict.as_str());
            }
            Response::CancelAck { id, txn } => {
                num(out, "id", *id as f64);
                num(out, "txn", *txn as f64);
                out.extend_from_slice(b"\"type\":\"cancel-ack\"");
            }
            Response::Drained {
                submits,
                acks,
                transactions,
                shed,
            } => {
                num(out, "acks", *acks as f64);
                num(out, "shed", *shed as f64);
                num(out, "submits", *submits as f64);
                num(out, "transactions", *transactions as f64);
                out.extend_from_slice(b"\"type\":\"drained\"");
            }
        }
        out.push(b'}');
    }

    /// Parses a JSON document into a response.
    pub fn from_json(text: &str) -> Result<Response, String> {
        let v = Json::parse(text)?;
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or("response missing \"type\"")?;
        let id = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("response missing integer {key:?}"))
        };
        match kind {
            "ack" => Ok(Response::Ack {
                id: id("id")?,
                redundancy: id("redundancy")? as u32,
                verdict: v
                    .get("verdict")
                    .and_then(Json::as_str)
                    .and_then(Verdict::parse)
                    .ok_or("bad verdict")?,
                txn: id("txn")?,
            }),
            "cancel-ack" => Ok(Response::CancelAck {
                id: id("id")?,
                txn: id("txn")?,
            }),
            "drained" => Ok(Response::Drained {
                submits: id("submits")?,
                acks: id("acks")?,
                transactions: id("transactions")?,
                shed: id("shed")?,
            }),
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

/// Wraps a JSON document in a `<len>:<json>\n` frame.
pub fn encode_frame(json: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(json.len() + 12);
    out.extend_from_slice(json.len().to_string().as_bytes());
    out.push(b':');
    out.extend_from_slice(json.as_bytes());
    out.push(b'\n');
    out
}

/// Incremental frame decoder over a byte stream.
///
/// Frames are consumed by advancing a start offset; the consumed prefix
/// is dropped once per [`extend`](Self::extend), so taking `m` frames
/// out of one read moves the leftover bytes once, not `m` times.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Offset of the first byte not yet framed.
    start: usize,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends raw bytes read from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.start);
        self.start = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet framed (non-zero after EOF = torn
    /// frame).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next complete frame's JSON payload, or `None` if
    /// more bytes are needed. A malformed prefix is a hard error.
    pub fn next_frame(&mut self) -> Result<Option<String>, String> {
        Ok(self.next_payload()?.map(str::to_string))
    }

    /// [`next_frame`](Self::next_frame) without copying: the payload is
    /// borrowed from the reader's buffer until the next call.
    pub fn next_payload(&mut self) -> Result<Option<&str>, String> {
        let rest = &self.buf[self.start..];
        let colon = match rest.iter().position(|&b| b == b':') {
            Some(i) => i,
            None => {
                if rest.len() > 20 {
                    return Err("frame prefix too long".to_string());
                }
                return Ok(None);
            }
        };
        let prefix = std::str::from_utf8(&rest[..colon]).map_err(|e| e.to_string())?;
        let len: usize = prefix
            .parse()
            .map_err(|e| format!("bad frame length {prefix:?}: {e}"))?;
        if len > MAX_FRAME {
            return Err(format!("frame of {len} bytes exceeds {MAX_FRAME}"));
        }
        let total = colon + 1 + len + 1; // prefix, ':', payload, '\n'
        if rest.len() < total {
            return Ok(None);
        }
        if rest[total - 1] != b'\n' {
            return Err("frame missing trailing newline".to_string());
        }
        let payload = &self.buf[self.start + colon + 1..self.start + total - 1];
        let payload = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
        self.start += total;
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Submit {
                id: 7,
                arrival_secs: 12.5,
                nodes: 32,
                runtime_secs: 600.0,
            },
            Request::Cancel {
                id: 7,
                arrival_secs: 13.0,
            },
            Request::Drain,
        ] {
            assert_eq!(Request::from_json(&req.to_json()).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            Response::Ack {
                id: 7,
                redundancy: 3,
                verdict: Verdict::Redundant,
                txn: 11,
            },
            Response::Ack {
                id: 8,
                redundancy: 0,
                verdict: Verdict::Shed,
                txn: 0,
            },
            Response::CancelAck { id: 7, txn: 12 },
            Response::Drained {
                submits: 100,
                acks: 100,
                transactions: 13,
                shed: 4,
            },
        ] {
            assert_eq!(Response::from_json(&resp.to_json()).unwrap(), resp);
        }
    }

    #[test]
    fn frames_reassemble_from_arbitrary_chunking() {
        let a = encode_frame(&Request::Drain.to_json());
        let b = encode_frame(
            &Request::Submit {
                id: 1,
                arrival_secs: 0.5,
                nodes: 1,
                runtime_secs: 1.0,
            }
            .to_json(),
        );
        let stream: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        // Feed one byte at a time: framing must not care about chunk
        // boundaries.
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        for byte in stream {
            reader.extend(&[byte]);
            while let Some(f) = reader.next_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(Request::from_json(&frames[0]).unwrap(), Request::Drain);
        assert_eq!(reader.buffered(), 0);
    }

    /// Frames of every request kind and of several payload lengths.
    fn sample_stream() -> (Vec<u8>, Vec<String>) {
        let mut payloads = vec![Request::Drain.to_json()];
        for id in [0, 7, 12_345, u64::from(u32::MAX)] {
            payloads.push(
                Request::Submit {
                    id,
                    arrival_secs: id as f64 * 0.37,
                    nodes: 1 + (id % 64) as u32,
                    runtime_secs: 3_600.5,
                }
                .to_json(),
            );
            payloads.push(
                Request::Cancel {
                    id,
                    arrival_secs: 1e6 + id as f64,
                }
                .to_json(),
            );
        }
        let bytes = payloads.iter().flat_map(|p| encode_frame(p)).collect();
        (bytes, payloads)
    }

    fn drain_frames(reader: &mut FrameReader, out: &mut Vec<String>) {
        while let Some(f) = reader.next_frame().unwrap() {
            out.push(f);
        }
    }

    #[test]
    fn a_split_at_any_byte_yields_the_whole_frame_payloads() {
        let (stream, payloads) = sample_stream();
        let mut whole = Vec::new();
        let mut reader = FrameReader::new();
        reader.extend(&stream);
        drain_frames(&mut reader, &mut whole);
        assert_eq!(whole, payloads);
        for cut in 0..=stream.len() {
            let mut reader = FrameReader::new();
            let mut frames = Vec::new();
            for part in [&stream[..cut], &stream[cut..]] {
                reader.extend(part);
                drain_frames(&mut reader, &mut frames);
            }
            assert_eq!(frames, whole, "split at byte {cut}");
            assert_eq!(reader.buffered(), 0);
        }
    }

    /// The responses as first rendered: a `Json` object tree.
    fn tree_json(resp: &Response) -> String {
        match resp {
            Response::Ack {
                id,
                redundancy,
                verdict,
                txn,
            } => Json::obj(vec![
                ("type", Json::Str("ack".to_string())),
                ("id", Json::Num(*id as f64)),
                ("redundancy", Json::Num(f64::from(*redundancy))),
                ("verdict", Json::Str(verdict.as_str().to_string())),
                ("txn", Json::Num(*txn as f64)),
            ]),
            Response::CancelAck { id, txn } => Json::obj(vec![
                ("type", Json::Str("cancel-ack".to_string())),
                ("id", Json::Num(*id as f64)),
                ("txn", Json::Num(*txn as f64)),
            ]),
            Response::Drained {
                submits,
                acks,
                transactions,
                shed,
            } => Json::obj(vec![
                ("type", Json::Str("drained".to_string())),
                ("submits", Json::Num(*submits as f64)),
                ("acks", Json::Num(*acks as f64)),
                ("transactions", Json::Num(*transactions as f64)),
                ("shed", Json::Num(*shed as f64)),
            ]),
        }
        .render()
    }

    #[test]
    fn direct_response_encoding_matches_the_json_tree() {
        // Ids past 2^53 round through f64 on both paths.
        let ids = [0, 1, 9, 10, 99_999, 1 << 53, (1 << 53) + 1, u64::MAX];
        let mut out = Vec::new();
        let mut want = Vec::new();
        for &id in &ids {
            for verdict in [Verdict::Redundant, Verdict::Single, Verdict::Shed] {
                for resp in [
                    Response::Ack {
                        id,
                        redundancy: (id % 7) as u32,
                        verdict,
                        txn: id / 3,
                    },
                    Response::CancelAck { id, txn: id ^ 5 },
                    Response::Drained {
                        submits: id,
                        acks: id / 2,
                        transactions: id / 8,
                        shed: id % 1_000,
                    },
                ] {
                    assert_eq!(resp.to_json(), tree_json(&resp));
                    resp.write_frame(&mut out);
                    want.extend(encode_frame(&tree_json(&resp)));
                }
            }
        }
        assert_eq!(out, want, "frames are appended back to back");
    }

    #[test]
    fn a_deeply_nested_frame_is_an_error_not_a_stack_overflow() {
        let payload = "[".repeat(MAX_FRAME - 1);
        assert!(Request::from_json(&payload).is_err());
        assert!(Response::from_json(&payload).is_err());
    }

    #[test]
    fn bad_prefixes_are_hard_errors() {
        let mut reader = FrameReader::new();
        reader.extend(b"xx:{}\n");
        assert!(reader.next_frame().is_err());
        let mut reader = FrameReader::new();
        reader.extend(b"999999999:");
        assert!(reader.next_frame().is_err());
    }

    #[test]
    fn torn_frames_are_visible() {
        let mut reader = FrameReader::new();
        reader.extend(b"10:{\"a\"");
        assert_eq!(reader.next_frame().unwrap(), None);
        assert!(reader.buffered() > 0);
    }
}
