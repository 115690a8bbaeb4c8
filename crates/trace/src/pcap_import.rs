//! Import of pcap files: real `tcpdump` output and the files
//! [`crate::pcap`] writes.
//!
//! Supports little-endian microsecond (`0xA1B2C3D4`) and nanosecond
//! (`0xA1B23C4D`) magics with `LINKTYPE_RAW` (101) or
//! `LINKTYPE_ETHERNET` (1) framing, IPv4/TCP with options (SACK blocks
//! are decoded). Packets are grouped into flows by 4-tuple and
//! converted into a server-side [`Capture`]: the "server" endpoint is
//! either given explicitly (by port) or inferred as the endpoint that
//! sent the most payload bytes.
//!
//! Malformed TCP packets are rejected with [`ImportError::Format`]
//! rather than silently repaired: an IPv4 header length below 20 bytes,
//! an option with a declared length of 0 or 1, an option whose length
//! points past the header, a missing option length byte, and a data
//! offset beyond the captured bytes are all fatal, because the rest of
//! the header cannot be delimited trustworthily. So is a record whose
//! sub-second timestamp is a whole second or more (10^6 µs or 10^9 ns),
//! which would otherwise move the packet up to 4,295 s later. Non-TCP
//! and non-IPv4 frames are still skipped.

use csig_netsim::{
    Capture, Direction, FlowId, NodeId, Packet, PacketId, PacketKind, PacketRecord, SimTime,
    TcpFlags, TcpHeader, NO_SACK, TCP_HEADER_BYTES,
};
use std::collections::HashMap;
use std::io::{self, Read};

const MAGIC_MICRO: u32 = 0xA1B2_C3D4;
const MAGIC_NANO: u32 = 0xA1B2_3C4D;
const LINKTYPE_ETHERNET: u32 = 1;
const LINKTYPE_RAW: u32 = 101;
/// Largest captured frame accepted; a larger `incl_len` is corrupt.
const MAX_FRAME: usize = 256 * 1024;

/// Errors importing a foreign pcap.
#[derive(Debug)]
pub enum ImportError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Unsupported or corrupt file structure.
    Format(&'static str),
}

impl From<io::Error> for ImportError {
    fn from(e: io::Error) -> Self {
        ImportError::Io(e)
    }
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Io(e) => write!(f, "pcap import io error: {e}"),
            ImportError::Format(m) => write!(f, "pcap import format error: {m}"),
        }
    }
}

impl std::error::Error for ImportError {}

// Fixed-width reads at a caller-bounds-checked offset. Plain indexing
// keeps these panic-free for every call site (each is preceded by a
// length check) without `expect` on an infallible `try_into`.
fn le_u32(b: &[u8], o: usize) -> u32 {
    u32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]])
}

fn be_u16(b: &[u8], o: usize) -> u16 {
    u16::from_be_bytes([b[o], b[o + 1]])
}

fn be_u32(b: &[u8], o: usize) -> u32 {
    u32::from_be_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]])
}

fn ip4(b: &[u8], o: usize) -> [u8; 4] {
    [b[o], b[o + 1], b[o + 2], b[o + 3]]
}

/// How to pick the server (data-sending, tap-side) endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerSelector {
    /// The endpoint using this TCP port.
    Port(u16),
    /// The endpoint that transmitted the most payload bytes; on a tie,
    /// the one whose first packet comes first in the capture.
    MostBytesSent,
}

/// A TCP endpoint: IPv4 address and port.
type Endpoint = ([u8; 4], u16);

/// One connection seen in the capture: its endpoints in sorted order
/// and, per endpoint, the payload it sent and the index of its first
/// packet (`None` if it sent nothing).
struct Conn {
    ends: [Endpoint; 2],
    sent: [Option<(u64, usize)>; 2],
    flow: Option<FlowId>,
}

/// Parse one captured frame (`l2_skip` bytes of link header, then
/// IPv4): its source and destination endpoints and TCP header, or
/// `None` for a frame that is not IPv4/TCP or too short to hold the
/// headers.
fn parse_frame(
    data: &[u8],
    l2_skip: usize,
    orig: u32,
) -> Result<Option<(Endpoint, Endpoint, TcpHeader)>, ImportError> {
    let Some(ip) = data.get(l2_skip..) else {
        return Ok(None);
    };
    // Ethernet framing must carry the IPv4 ethertype.
    if l2_skip == 14 && (data[12] != 0x08 || data[13] != 0x00) {
        return Ok(None);
    }
    if ip.len() < 40 || ip[0] >> 4 != 4 || ip[9] != 6 {
        return Ok(None);
    }
    let ihl = ((ip[0] & 0xF) as usize) * 4;
    if ihl < 20 {
        return Err(ImportError::Format("IPv4 header length below 20 bytes"));
    }
    if ip.len() < ihl + 20 {
        return Ok(None);
    }
    let tcp = &ip[ihl..];
    let doff = ((tcp[12] >> 4) as usize) * 4;
    if doff < 20 {
        return Ok(None);
    }
    if tcp.len() < doff {
        return Err(ImportError::Format("TCP header overruns captured frame"));
    }
    let mut flags = TcpFlags::default();
    for (bit, flag) in [
        (0x01, TcpFlags::FIN),
        (0x02, TcpFlags::SYN),
        (0x04, TcpFlags::RST),
        (0x10, TcpFlags::ACK),
    ] {
        if tcp[13] & bit != 0 {
            flags = flags | flag;
        }
    }
    let mut sack = NO_SACK;
    let mut opts = &tcp[20..doff];
    while let Some(&kind) = opts.first() {
        match kind {
            0 => break,
            1 => {
                opts = &opts[1..];
                continue;
            }
            _ => {}
        }
        // Every other option carries a length byte covering the whole
        // option. A declared length of 0 or 1 (or one pointing past the
        // header) is not recoverable — the rest of the option area
        // cannot be delimited — so the packet is rejected rather than
        // silently mis-parsed.
        let Some(&l) = opts.get(1) else {
            return Err(ImportError::Format("TCP option missing its length byte"));
        };
        let len = l as usize;
        if len < 2 {
            return Err(ImportError::Format("TCP option with declared length < 2"));
        }
        if len > opts.len() {
            return Err(ImportError::Format("TCP option overruns the header"));
        }
        if kind == 5 {
            let nblocks = ((len - 2) / 8).min(3);
            for (i, slot) in sack.iter_mut().enumerate().take(nblocks) {
                let o = 2 + i * 8;
                *slot = Some((be_u32(opts, o), be_u32(opts, o + 4)));
            }
        }
        opts = &opts[len..];
    }
    // Payload from the IP total length; if zero/implausible (TSO
    // offload writes 0), fall back to the original wire length.
    let ip_total = be_u16(ip, 2) as u32;
    let payload_len = if ip_total as usize >= ihl + doff {
        ip_total - (ihl + doff) as u32
    } else {
        orig.saturating_sub((l2_skip + ihl + doff) as u32)
    };
    let header = TcpHeader {
        seq: be_u32(tcp, 4),
        ack: be_u32(tcp, 8),
        flags,
        payload_len,
        window: be_u16(tcp, 14) as u32,
        sack,
    };
    Ok(Some((
        (ip4(ip, 12), be_u16(tcp, 0)),
        (ip4(ip, 16), be_u16(tcp, 2)),
        header,
    )))
}

/// Read a pcap stream into a server-side [`Capture`]: one synthetic
/// flow id per 4-tuple, `Out` for packets the server endpoint sent.
/// Non-TCP frames are skipped silently, and so are packets that
/// neither come from nor go to the server.
///
/// One pass parses each frame and pushes its record straight into the
/// capture. Until the server is known, a record holds its connection's
/// index in `pkt.id` and its sender's side (an index into the
/// connection's sorted endpoints) in `pkt.src`. Connections are keyed
/// by their unordered endpoint pair; a packet on the same connection as
/// the one before it reuses that index without a map lookup, which
/// covers nearly every packet of a capture where each connection sends
/// in bursts. A fix-up pass in place then sets each record's
/// direction, endpoints, flow id (in order of first appearance among
/// packets to or from the server) and packet id, and compacts out the
/// unrelated packets.
pub fn import_pcap<R: Read>(mut r: R, server: ServerSelector) -> Result<Capture, ImportError> {
    let mut global = [0u8; 24];
    r.read_exact(&mut global)?;
    let (nanos_per_frac, frac_limit) = match le_u32(&global, 0) {
        MAGIC_MICRO => (1_000u64, 1_000_000u64),
        MAGIC_NANO => (1, 1_000_000_000),
        _ => return Err(ImportError::Format("unsupported magic (need LE pcap)")),
    };
    let l2_skip = match le_u32(&global, 20) {
        LINKTYPE_RAW => 0usize,
        LINKTYPE_ETHERNET => 14,
        _ => {
            return Err(ImportError::Format(
                "unsupported linktype (need RAW or EN10MB)",
            ))
        }
    };

    let mut cap = Capture::new(NodeId(0));
    let mut index: HashMap<[Endpoint; 2], usize> = HashMap::new();
    let mut conns: Vec<Conn> = Vec::new();
    let mut last: Option<([Endpoint; 2], usize)> = None;
    // `ServerSelector::Port(p)`: the endpoint with port `p` in the first
    // packet that has one. That packet opens a connection, so only new
    // connections are checked.
    let mut named: Option<Endpoint> = None;
    let mut hdr = [0u8; 16];
    // One frame buffer for the whole file, sized to each record before
    // `read_exact` fills it completely, so no earlier frame's bytes are
    // ever parsed. `MAX_FRAME` bounds how far it grows.
    let mut data = Vec::new();
    let mut base_sec: Option<u64> = None;
    loop {
        match r.read_exact(&mut hdr) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
        let ts_sec = le_u32(&hdr, 0) as u64;
        let ts_frac = le_u32(&hdr, 4) as u64;
        let incl = le_u32(&hdr, 8) as usize;
        if incl > MAX_FRAME {
            return Err(ImportError::Format("implausible packet length"));
        }
        if ts_frac >= frac_limit {
            return Err(ImportError::Format("sub-second timestamp out of range"));
        }
        data.resize(incl, 0);
        r.read_exact(&mut data)?;
        // Timestamps relative to the first packet's second keeps SimTime
        // in range for multi-year epoch values.
        let base = *base_sec.get_or_insert(ts_sec);
        let time = SimTime::from_nanos(
            ts_sec.saturating_sub(base) * 1_000_000_000 + ts_frac * nanos_per_frac,
        );
        let Some((src, dst, tcp)) = parse_frame(&data, l2_skip, le_u32(&hdr, 12))? else {
            continue;
        };

        let ends = if src <= dst { [src, dst] } else { [dst, src] };
        let c = match last {
            Some((prev, c)) if prev == ends => c,
            _ => *index.entry(ends).or_insert_with(|| {
                if let (None, ServerSelector::Port(p)) = (named, server) {
                    named = [src, dst].into_iter().find(|end| end.1 == p);
                }
                conns.push(Conn {
                    ends,
                    sent: [None, None],
                    flow: None,
                });
                conns.len() - 1
            }),
        };
        last = Some((ends, c));
        let side = usize::from(src != ends[0]);
        let first = cap.records.len();
        conns[c].sent[side].get_or_insert((0, first)).0 += tcp.payload_len as u64;
        cap.records.push(PacketRecord {
            time,
            dir: Direction::Out,
            pkt: Packet {
                id: PacketId(c as u64),
                flow: FlowId(0),
                src: NodeId(side as u32),
                dst: NodeId(0),
                // A payload taken from a foreign `orig_len` can be
                // within a header of `u32::MAX`.
                size: tcp.payload_len.saturating_add(TCP_HEADER_BYTES),
                sent_at: time,
                kind: PacketKind::Tcp(tcp),
            },
        });
    }

    // Identify the server endpoint.
    let server_key = match server {
        ServerSelector::Port(_) => named,
        ServerSelector::MostBytesSent => {
            // Each sender's total over its connections and the index of
            // its first packet: a tie goes to the endpoint that sent
            // first, the same on every call (map iteration order is
            // random, but no two senders share a first packet).
            let mut sent: HashMap<Endpoint, (u64, usize)> = HashMap::new();
            for conn in &conns {
                for (end, sent_by) in conn.ends.iter().zip(conn.sent) {
                    if let Some((bytes, first)) = sent_by {
                        let total = sent.entry(*end).or_insert((0, first));
                        total.0 += bytes;
                        total.1 = total.1.min(first);
                    }
                }
            }
            sent.into_iter()
                .max_by_key(|&(_, (bytes, first))| (bytes, std::cmp::Reverse(first)))
                .map(|(key, _)| key)
        }
    };
    let Some(server_key) = server_key else {
        return Ok(Capture::new(NodeId(0)));
    };

    let mut next_flow = 0u32;
    let mut next_id = 0u64;
    cap.records.retain_mut(|rec| {
        let conn = &mut conns[rec.pkt.id.0 as usize];
        let side = rec.pkt.src.0 as usize;
        let from_server = conn.ends[side] == server_key;
        if !from_server && conn.ends[1 - side] != server_key {
            return false; // unrelated traffic in the capture
        }
        rec.pkt.flow = *conn.flow.get_or_insert_with(|| {
            next_flow += 1;
            FlowId(next_flow - 1)
        });
        rec.dir = if from_server {
            Direction::Out
        } else {
            Direction::In
        };
        rec.pkt.id = PacketId(next_id);
        rec.pkt.src = NodeId(u32::from(from_server));
        rec.pkt.dst = NodeId(u32::from(!from_server));
        next_id += 1;
        true
    });
    Ok(cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::any;

    /// A TCP packet as the two-stage importer parsed it, before any
    /// server was chosen.
    struct RawTcpPacket {
        time: SimTime,
        src_ip: [u8; 4],
        dst_ip: [u8; 4],
        sport: u16,
        dport: u16,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        payload_len: u32,
        window: u32,
        sack: csig_netsim::SackBlocks,
    }

    /// The parsing stage of the two-stage importer `import_pcap`
    /// replaced, unchanged but for the sub-second timestamp check. With
    /// [`reference_assemble_capture`] (whose record size saturates, as
    /// `import_pcap`'s does) it is the differential tests' reference.
    fn reference_parse_pcap_tcp<R: Read>(mut r: R) -> Result<Vec<RawTcpPacket>, ImportError> {
        let mut global = [0u8; 24];
        r.read_exact(&mut global)?;
        let magic = le_u32(&global, 0);
        let nanos_per_frac = match magic {
            MAGIC_MICRO => 1_000u64,
            MAGIC_NANO => 1,
            _ => return Err(ImportError::Format("unsupported magic (need LE pcap)")),
        };
        let linktype = le_u32(&global, 20);
        let l2_skip = match linktype {
            LINKTYPE_RAW => 0usize,
            LINKTYPE_ETHERNET => 14,
            _ => {
                return Err(ImportError::Format(
                    "unsupported linktype (need RAW or EN10MB)",
                ))
            }
        };

        let mut packets = Vec::new();
        let mut hdr = [0u8; 16];
        let mut data = Vec::new();
        let mut base_sec: Option<u64> = None;
        loop {
            match r.read_exact(&mut hdr) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(e.into()),
            }
            let ts_sec = le_u32(&hdr, 0) as u64;
            let ts_frac = le_u32(&hdr, 4) as u64;
            let incl = le_u32(&hdr, 8) as usize;
            let orig = le_u32(&hdr, 12);
            if incl > MAX_FRAME {
                return Err(ImportError::Format("implausible packet length"));
            }
            if ts_frac * nanos_per_frac >= 1_000_000_000 {
                return Err(ImportError::Format("sub-second timestamp out of range"));
            }
            data.resize(incl, 0);
            r.read_exact(&mut data)?;
            let base = *base_sec.get_or_insert(ts_sec);
            let time = SimTime::from_nanos(
                ts_sec.saturating_sub(base) * 1_000_000_000 + ts_frac * nanos_per_frac,
            );

            let Some(ip) = data.get(l2_skip..) else {
                continue;
            };
            if linktype == LINKTYPE_ETHERNET
                && (data.len() < 14 || data[12] != 0x08 || data[13] != 0x00)
            {
                continue;
            }
            if ip.len() < 40 || ip[0] >> 4 != 4 || ip[9] != 6 {
                continue;
            }
            let ihl = ((ip[0] & 0xF) as usize) * 4;
            if ihl < 20 {
                return Err(ImportError::Format("IPv4 header length below 20 bytes"));
            }
            if ip.len() < ihl + 20 {
                continue;
            }
            let ip_total = be_u16(ip, 2) as u32;
            let src_ip = ip4(ip, 12);
            let dst_ip = ip4(ip, 16);
            let tcp = &ip[ihl..];
            let doff = ((tcp[12] >> 4) as usize) * 4;
            if doff < 20 || tcp.len() < 20 {
                continue;
            }
            let fbyte = tcp[13];
            let mut flags = TcpFlags::default();
            if fbyte & 0x01 != 0 {
                flags = flags | TcpFlags::FIN;
            }
            if fbyte & 0x02 != 0 {
                flags = flags | TcpFlags::SYN;
            }
            if fbyte & 0x04 != 0 {
                flags = flags | TcpFlags::RST;
            }
            if fbyte & 0x10 != 0 {
                flags = flags | TcpFlags::ACK;
            }
            if tcp.len() < doff {
                return Err(ImportError::Format("TCP header overruns captured frame"));
            }
            let mut sack = NO_SACK;
            let mut opts = &tcp[20..doff];
            while !opts.is_empty() {
                let kind = opts[0];
                match kind {
                    0 => break,
                    1 => {
                        opts = &opts[1..];
                        continue;
                    }
                    _ => {}
                }
                let Some(&l) = opts.get(1) else {
                    return Err(ImportError::Format("TCP option missing its length byte"));
                };
                let len = l as usize;
                if len < 2 {
                    return Err(ImportError::Format("TCP option with declared length < 2"));
                }
                if len > opts.len() {
                    return Err(ImportError::Format("TCP option overruns the header"));
                }
                if kind == 5 {
                    let nblocks = ((len - 2) / 8).min(3);
                    for (i, slot) in sack.iter_mut().enumerate().take(nblocks) {
                        let o = 2 + i * 8;
                        if o + 8 <= len {
                            *slot = Some((be_u32(opts, o), be_u32(opts, o + 4)));
                        }
                    }
                }
                opts = &opts[len..];
            }
            let payload_len = if ip_total as usize >= ihl + doff {
                ip_total - (ihl + doff) as u32
            } else {
                orig.saturating_sub((l2_skip + ihl + doff) as u32)
            };
            packets.push(RawTcpPacket {
                time,
                src_ip,
                dst_ip,
                sport: be_u16(tcp, 0),
                dport: be_u16(tcp, 2),
                seq: be_u32(tcp, 4),
                ack: be_u32(tcp, 8),
                flags,
                payload_len,
                window: be_u16(tcp, 14) as u32,
                sack,
            });
        }
        Ok(packets)
    }

    /// The assembly stage of the two-stage importer, in its two-map
    /// form (one map of bytes sent per source endpoint, one of flow ids
    /// per 4-tuple), which the later connection-index assembler was
    /// proven equal to.
    fn reference_assemble_capture(packets: &[RawTcpPacket], server: ServerSelector) -> Capture {
        // Identify the server endpoint.
        let server_key: Option<([u8; 4], u16)> = match server {
            ServerSelector::Port(p) => packets.iter().find_map(|pkt| {
                if pkt.sport == p {
                    Some((pkt.src_ip, pkt.sport))
                } else if pkt.dport == p {
                    Some((pkt.dst_ip, pkt.dport))
                } else {
                    None
                }
            }),
            ServerSelector::MostBytesSent => {
                // Each sender's total and the index of its first packet: a
                // tie goes to the endpoint that sent first, the same on every
                // call (map iteration order is random).
                let mut sent: HashMap<([u8; 4], u16), (u64, usize)> = HashMap::new();
                for (i, pkt) in packets.iter().enumerate() {
                    sent.entry((pkt.src_ip, pkt.sport)).or_insert((0, i)).0 +=
                        pkt.payload_len as u64;
                }
                sent.into_iter()
                    .max_by_key(|&(_, (bytes, first))| (bytes, std::cmp::Reverse(first)))
                    .map(|(key, _)| key)
            }
        };
        let Some(server_key) = server_key else {
            return Capture::new(NodeId(0));
        };

        let mut cap = Capture::new(NodeId(0));
        let mut flow_ids: HashMap<([u8; 4], u16, [u8; 4], u16), FlowId> = HashMap::new();
        let mut next_flow = 0u32;
        let mut next_id = 0u64;
        for pkt in packets {
            let from_server = (pkt.src_ip, pkt.sport) == server_key;
            let to_server = (pkt.dst_ip, pkt.dport) == server_key;
            if !from_server && !to_server {
                continue; // unrelated traffic in the capture
            }
            // Canonical tuple: (client, server) ordering.
            let tuple = if from_server {
                (pkt.dst_ip, pkt.dport, pkt.src_ip, pkt.sport)
            } else {
                (pkt.src_ip, pkt.sport, pkt.dst_ip, pkt.dport)
            };
            let flow = *flow_ids.entry(tuple).or_insert_with(|| {
                let f = FlowId(next_flow);
                next_flow += 1;
                f
            });
            let dir = if from_server {
                Direction::Out
            } else {
                Direction::In
            };
            cap.records.push(PacketRecord {
                time: pkt.time,
                dir,
                pkt: Packet {
                    id: PacketId(next_id),
                    flow,
                    src: NodeId(u32::from(from_server)),
                    dst: NodeId(u32::from(!from_server)),
                    size: pkt.payload_len.saturating_add(TCP_HEADER_BYTES),
                    sent_at: pkt.time,
                    kind: PacketKind::Tcp(TcpHeader {
                        seq: pkt.seq,
                        ack: pkt.ack,
                        flags: pkt.flags,
                        payload_len: pkt.payload_len,
                        window: pkt.window,
                        sack: pkt.sack,
                    }),
                },
            });
            next_id += 1;
        }
        cap
    }

    /// `import_pcap` and the two-stage reference agree on `bytes` under
    /// the server selectors the tests use (one port names no endpoint
    /// any test builds): the same capture, or the same error.
    fn assert_matches_reference(bytes: &[u8]) {
        for sel in [
            ServerSelector::MostBytesSent,
            ServerSelector::Port(5001),
            ServerSelector::Port(40_001),
            ServerSelector::Port(9),
        ] {
            let want = reference_parse_pcap_tcp(bytes)
                .map(|packets| reference_assemble_capture(&packets, sel));
            match (import_pcap(bytes, sel), want) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got.node, want.node);
                    assert_eq!(got.records, want.records, "{sel:?}");
                }
                (Err(ImportError::Format(a)), Err(ImportError::Format(b))) => assert_eq!(a, b),
                (Err(ImportError::Io(a)), Err(ImportError::Io(b))) => {
                    assert_eq!(a.kind(), b.kind())
                }
                (got, want) => panic!("{sel:?}: got {got:?}, reference {want:?}"),
            }
        }
    }

    const IPV4: u16 = 0x0800;
    const SERVER: Endpoint = ([10, 0, 0, 1], 5001);
    const CLIENT: Endpoint = ([10, 0, 0, 2], 40_000);

    /// The IPv4 and TCP headers of a packet `src` → `dst` carrying
    /// `payload` bytes (left out, as a snap length would) and the
    /// option area `opts` (a multiple of 4 bytes).
    fn tcp_packet(
        src: Endpoint,
        dst: Endpoint,
        seq: u32,
        ack: u32,
        payload: u32,
        opts: &[u8],
    ) -> Vec<u8> {
        assert!(opts.len().is_multiple_of(4));
        let doff = 20 + opts.len();
        let mut ip = vec![0x45, 0];
        ip.extend_from_slice(&((20 + doff) as u16 + payload as u16).to_be_bytes());
        ip.extend_from_slice(&[0, 0, 0x40, 0, 64, 6, 0, 0]);
        ip.extend_from_slice(&src.0);
        ip.extend_from_slice(&dst.0);
        ip.extend_from_slice(&src.1.to_be_bytes());
        ip.extend_from_slice(&dst.1.to_be_bytes());
        ip.extend_from_slice(&seq.to_be_bytes());
        ip.extend_from_slice(&ack.to_be_bytes());
        ip.extend_from_slice(&[((doff / 4) as u8) << 4, 0x10]);
        ip.extend_from_slice(&65_535u16.to_be_bytes());
        ip.extend_from_slice(&[0, 0, 0, 0]);
        ip.extend_from_slice(opts);
        ip
    }

    /// A pcap file with the µs magic if `micro` (else ns) and Ethernet
    /// framing if `ethernet` (else raw IPv4). Each record is its time
    /// in µs, its ethertype (used under Ethernet framing), its IP-level
    /// bytes, and how many bytes of its original length were not
    /// captured.
    fn pcap_file(micro: bool, ethernet: bool, recs: &[(u64, u16, Vec<u8>, u32)]) -> Vec<u8> {
        let magic = if micro { MAGIC_MICRO } else { MAGIC_NANO };
        let linktype = if ethernet {
            LINKTYPE_ETHERNET
        } else {
            LINKTYPE_RAW
        };
        let mut buf = Vec::new();
        buf.extend_from_slice(&magic.to_le_bytes());
        buf.extend_from_slice(&[2, 0, 4, 0]);
        buf.extend_from_slice(&[0u8; 8]);
        buf.extend_from_slice(&65_535u32.to_le_bytes());
        buf.extend_from_slice(&linktype.to_le_bytes());
        for (t_us, ethertype, ip, snapped) in recs {
            let mut frame = Vec::new();
            if ethernet {
                frame.extend_from_slice(&[0u8; 12]);
                frame.extend_from_slice(&ethertype.to_be_bytes());
            }
            frame.extend_from_slice(ip);
            let frac = t_us % 1_000_000 * if micro { 1 } else { 1_000 };
            buf.extend_from_slice(&((t_us / 1_000_000) as u32).to_le_bytes());
            buf.extend_from_slice(&(frac as u32).to_le_bytes());
            buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            buf.extend_from_slice(&(frame.len() as u32 + snapped).to_le_bytes());
            buf.extend_from_slice(&frame);
        }
        buf
    }

    /// A microsecond-magic Ethernet pcap: one 100-byte data packet
    /// server(10.0.0.1:5001) → client(10.0.0.2:40000) and one pure ACK
    /// back.
    fn synthetic_ethernet_pcap() -> Vec<u8> {
        pcap_file(
            true,
            true,
            &[
                (
                    500,
                    IPV4,
                    tcp_packet(SERVER, CLIENT, 1000, 1, 100, &[]),
                    100,
                ),
                (40_500, IPV4, tcp_packet(CLIENT, SERVER, 1, 1100, 0, &[]), 0),
            ],
        )
    }

    fn tcp(rec: &PacketRecord) -> &TcpHeader {
        rec.pkt.tcp().unwrap()
    }

    #[test]
    fn parses_microsecond_ethernet_captures() {
        let cap = import_pcap(&synthetic_ethernet_pcap()[..], ServerSelector::Port(5001)).unwrap();
        assert_eq!(cap.records.len(), 2);
        assert_eq!(tcp(&cap.records[0]).seq, 1000);
        assert_eq!(tcp(&cap.records[0]).payload_len, 100);
        assert_eq!(cap.records[0].pkt.size, 100 + TCP_HEADER_BYTES);
        assert_eq!(cap.records[0].time, SimTime::from_micros(500));
        assert_eq!(tcp(&cap.records[1]).payload_len, 0);
        assert_eq!(tcp(&cap.records[1]).ack, 1100);
        // Microsecond fraction scaled to nanoseconds.
        assert_eq!(cap.records[1].time, SimTime::from_micros(40_500));
        assert_eq!(cap.records[1].pkt.id, PacketId(1));
    }

    #[test]
    fn assembles_server_side_capture_by_port() {
        let cap = import_pcap(&synthetic_ethernet_pcap()[..], ServerSelector::Port(5001)).unwrap();
        assert_eq!(cap.records.len(), 2);
        assert_eq!(cap.records[0].dir, Direction::Out);
        assert_eq!(cap.records[1].dir, Direction::In);
        assert_eq!(cap.records[0].pkt.flow, cap.records[1].pkt.flow);
    }

    #[test]
    fn server_inference_by_bytes_sent() {
        // The 100-byte sender (port 5001) must be chosen automatically.
        let buf = synthetic_ethernet_pcap();
        let cap = import_pcap(&buf[..], ServerSelector::MostBytesSent).unwrap();
        assert_eq!(cap.records[0].dir, Direction::Out);
    }

    #[test]
    fn server_inference_breaks_ties_by_first_appearance() {
        // Both endpoints sent 500 bytes: the first one seen must win,
        // on every call.
        let from_server = (0, IPV4, tcp_packet(SERVER, CLIENT, 1, 1, 500, &[]), 500);
        let from_client = (0, IPV4, tcp_packet(CLIENT, SERVER, 1, 1, 500, &[]), 500);
        let tied = pcap_file(false, false, &[from_server.clone(), from_client.clone()]);
        for _ in 0..64 {
            let cap = import_pcap(&tied[..], ServerSelector::MostBytesSent).unwrap();
            assert_eq!(cap.records[0].dir, Direction::Out);
            assert_eq!(cap.records[1].dir, Direction::In);
        }
        // Swapping the packets swaps the winner.
        let swapped = pcap_file(false, false, &[from_client, from_server]);
        let cap = import_pcap(&swapped[..], ServerSelector::MostBytesSent).unwrap();
        assert_eq!(cap.records[0].dir, Direction::Out);
        assert_eq!(cap.records[0].pkt.src, NodeId(1));
    }

    #[test]
    fn server_inference_ties_use_each_senders_earliest_packet() {
        // The server sends nothing on the connection it is first seen
        // on until after its second connection's client has sent: the
        // tie between it and that client still goes to the server.
        let other = ([10, 0, 0, 3], 40_001);
        let recs = [
            (0, IPV4, tcp_packet(CLIENT, SERVER, 1, 1, 0, &[]), 0),
            (1, IPV4, tcp_packet(SERVER, other, 1, 1, 500, &[]), 500),
            (2, IPV4, tcp_packet(other, SERVER, 1, 1, 500, &[]), 500),
            (3, IPV4, tcp_packet(SERVER, CLIENT, 1, 1, 0, &[]), 0),
        ];
        let cap = import_pcap(
            &pcap_file(true, false, &recs)[..],
            ServerSelector::MostBytesSent,
        );
        let dirs: Vec<Direction> = cap.unwrap().records.iter().map(|r| r.dir).collect();
        use Direction::{In, Out};
        assert_eq!(dirs, [In, Out, In, Out]);
    }

    #[test]
    fn native_roundtrip_format_also_imports() {
        // Files written by crate::pcap (nanosecond, LINKTYPE_RAW) parse
        // through the same importer.
        let mut cap = Capture::new(NodeId(3));
        cap.records.push(PacketRecord {
            time: SimTime::from_millis(7),
            dir: Direction::Out,
            pkt: Packet {
                id: PacketId(0),
                flow: FlowId(9),
                src: NodeId(3),
                dst: NodeId(4),
                size: 100 + TCP_HEADER_BYTES,
                sent_at: SimTime::from_millis(7),
                kind: PacketKind::Tcp(TcpHeader {
                    seq: 5,
                    ack: 6,
                    flags: TcpFlags::ACK,
                    payload_len: 100,
                    window: 1000,
                    sack: NO_SACK,
                }),
            },
        });
        let mut buf = Vec::new();
        crate::pcap::write_pcap(&cap, &mut buf).unwrap();
        let got = import_pcap(&buf[..], ServerSelector::MostBytesSent).unwrap();
        assert_eq!(got.records.len(), 1);
        assert_eq!(tcp(&got.records[0]).seq, 5);
        assert_eq!(tcp(&got.records[0]).payload_len, 100);
    }

    /// A raw IPv4/TCP frame (10.0.0.1:5001 → 10.0.0.2:40000) whose
    /// option area is exactly `opts` (must be padded to a multiple of 4
    /// bytes).
    fn frame_with_options(opts: &[u8]) -> Vec<u8> {
        tcp_packet(SERVER, CLIENT, 1000, 1, 0, opts)
    }

    /// A nanosecond/RAW pcap holding `frames`, all at time zero.
    fn raw_pcap(frames: &[&[u8]]) -> Vec<u8> {
        let recs: Vec<_> = frames.iter().map(|f| (0, IPV4, f.to_vec(), 0)).collect();
        pcap_file(false, false, &recs)
    }

    /// A nanosecond/RAW pcap holding one TCP packet whose option area
    /// is exactly `opts`.
    fn pcap_with_options(opts: &[u8]) -> Vec<u8> {
        raw_pcap(&[&frame_with_options(opts)])
    }

    fn import_err(bytes: &[u8]) -> ImportError {
        import_pcap(bytes, ServerSelector::MostBytesSent).unwrap_err()
    }

    #[test]
    fn short_frame_after_a_long_one_parses_as_on_its_own() {
        // NOP, NOP, SACK with three blocks: a 68-byte frame.
        let mut opts = vec![1, 1, 5, 26];
        for v in 1..=6u32 {
            opts.extend_from_slice(&(v * 1000).to_be_bytes());
        }
        let long = frame_with_options(&opts);
        let headers =
            |cap: Capture| -> Vec<TcpHeader> { cap.records.iter().map(|rec| *tcp(rec)).collect() };
        // Cut inside its options (the data offset overruns the frame),
        // and cut inside the TCP header (skipped as too short).
        for tail in [&long[..40], &long[..30]] {
            let sel = ServerSelector::Port(5001);
            let alone = import_pcap(&raw_pcap(&[tail])[..], sel).map(headers);
            let after = import_pcap(&raw_pcap(&[&long, tail])[..], sel).map(headers);
            match (alone, after) {
                (Ok(alone), Ok(after)) => {
                    assert_eq!(after.len(), alone.len() + 1);
                    assert_eq!(after[1..], alone[..]);
                }
                (Err(ImportError::Format(a)), Err(ImportError::Format(b))) => assert_eq!(a, b),
                other => panic!("{} bytes: alone and after differ: {other:?}", tail.len()),
            }
        }
    }

    #[test]
    fn decodes_valid_sack_blocks() {
        // NOP, NOP, SACK(len 10) with one block [7, 19].
        let mut opts = vec![1, 1, 5, 10];
        opts.extend_from_slice(&7u32.to_be_bytes());
        opts.extend_from_slice(&19u32.to_be_bytes());
        let cap = import_pcap(&pcap_with_options(&opts)[..], ServerSelector::Port(5001)).unwrap();
        assert_eq!(cap.records.len(), 1);
        assert_eq!(tcp(&cap.records[0]).sack[0], Some((7, 19)));
        assert_eq!(tcp(&cap.records[0]).sack[1], None);
    }

    #[test]
    fn rejects_zero_and_one_length_tcp_options() {
        // A declared option length of 0 or 1 cannot delimit the rest of
        // the option area; the old importer clamped it to 2 silently.
        for bad_len in [0u8, 1] {
            let err = import_err(&pcap_with_options(&[8, bad_len, 0, 0]));
            assert!(
                matches!(err, ImportError::Format(m) if m.contains("declared length")),
                "len {bad_len}: {err}"
            );
        }
        // SACK with a bad declared length is rejected the same way.
        let err = import_err(&pcap_with_options(&[5, 1, 0, 0]));
        assert!(matches!(err, ImportError::Format(_)), "{err}");
    }

    #[test]
    fn rejects_truncated_tcp_options() {
        // Length byte points past the end of the option area…
        let err = import_err(&pcap_with_options(&[5, 34, 0, 0]));
        assert!(
            matches!(err, ImportError::Format(m) if m.contains("overruns")),
            "{err}"
        );
        // …or the option area ends before the length byte (EOL padding
        // after a bare kind would be mis-read as length 0).
        let err = import_err(&pcap_with_options(&[1, 1, 1, 8]));
        assert!(
            matches!(err, ImportError::Format(m) if m.contains("length byte")),
            "{err}"
        );
    }

    #[test]
    fn rejects_ipv4_header_length_below_20_bytes() {
        // IHL 4 (16 bytes) would put the TCP header inside the IP header
        // at the destination address; an ACK number whose top byte is
        // 0x50 makes that misplaced header's data offset look valid.
        let mut buf = pcap_with_options(&[]);
        let frame = 24 + 16;
        buf[frame] = 0x44;
        buf[frame + 28] = 0x50;
        let err = import_err(&buf);
        assert!(
            matches!(err, ImportError::Format(m) if m.contains("IPv4 header")),
            "{err}"
        );
    }

    /// A one-packet pcap whose record's sub-second field is `frac`.
    fn pcap_with_fraction(micro: bool, frac: u32) -> Vec<u8> {
        let mut buf = pcap_file(micro, false, &[(0, IPV4, frame_with_options(&[]), 0)]);
        buf[28..32].copy_from_slice(&frac.to_le_bytes());
        buf
    }

    #[test]
    fn rejects_out_of_range_microsecond_timestamp() {
        let cap = import_pcap(
            &pcap_with_fraction(true, 999_999)[..],
            ServerSelector::Port(5001),
        );
        assert_eq!(cap.unwrap().records[0].time, SimTime::from_micros(999_999));
        // Read as is, 1,000,000 µs would put the packet a second late.
        let err = import_err(&pcap_with_fraction(true, 1_000_000));
        assert!(
            matches!(err, ImportError::Format(m) if m.contains("sub-second")),
            "{err}"
        );
    }

    #[test]
    fn rejects_out_of_range_nanosecond_timestamp() {
        let cap = import_pcap(
            &pcap_with_fraction(false, 999_999_999)[..],
            ServerSelector::Port(5001),
        );
        assert_eq!(
            cap.unwrap().records[0].time,
            SimTime::from_nanos(999_999_999)
        );
        let err = import_err(&pcap_with_fraction(false, 1_000_000_000));
        assert!(
            matches!(err, ImportError::Format(m) if m.contains("sub-second")),
            "{err}"
        );
    }

    #[test]
    fn payload_from_a_huge_original_length_saturates_the_size() {
        // A zero IPv4 total length (as TSO captures write) takes the
        // payload from `orig_len`, which a foreign file may set to
        // anything.
        let mut ip = frame_with_options(&[]);
        ip[2..4].fill(0);
        let mut buf = pcap_file(false, false, &[(0, IPV4, ip, 0)]);
        buf[36..40].copy_from_slice(&u32::MAX.to_le_bytes());
        let cap = import_pcap(&buf[..], ServerSelector::Port(5001)).unwrap();
        assert_eq!(tcp(&cap.records[0]).payload_len, u32::MAX - 40);
        assert_eq!(cap.records[0].pkt.size, u32::MAX);
    }

    #[test]
    fn rejects_garbage() {
        // Bad magic, then a file truncated inside its global header.
        assert!(matches!(import_err(&[0u8; 24]), ImportError::Format(_)));
        assert!(matches!(import_err(&[0u8; 3]), ImportError::Io(_)));
    }

    #[test]
    fn rejects_implausible_frame_length() {
        // An `incl_len` past `MAX_FRAME` is refused before any buffer
        // is sized to it.
        let mut buf = pcap_with_options(&[]);
        buf[32..36].copy_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let err = import_err(&buf);
        assert!(
            matches!(err, ImportError::Format(m) if m.contains("implausible")),
            "{err}"
        );
    }

    #[test]
    fn truncated_record_body_is_an_io_error() {
        let mut buf = pcap_with_options(&[]);
        buf.pop();
        assert!(matches!(
            import_err(&buf),
            ImportError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn empty_capture_when_no_server_match() {
        let buf = synthetic_ethernet_pcap();
        let cap = import_pcap(&buf[..], ServerSelector::Port(9999)).unwrap();
        assert!(cap.is_empty());
    }

    proptest::proptest! {
        /// Arbitrary bytes never panic the importer — they error or
        /// import as the reference does.
        #[test]
        fn prop_importer_is_total(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
            assert_matches_reference(&data);
        }

        /// Arbitrary bytes after a valid µs/Ethernet global header never
        /// panic the importer, and import as the reference does. The
        /// record headers are random too, so their length and
        /// sub-second checks are reached, and bodies are cut short.
        #[test]
        fn prop_importer_survives_corrupt_bodies(tail in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let mut buf = pcap_file(true, true, &[]);
            buf.extend_from_slice(&tail);
            assert_matches_reference(&buf);
        }

        /// Arbitrary frame bytes behind valid pcap headers never panic
        /// the importer, and import as the reference does. Most frames
        /// are made to claim IPv4/TCP, many with a 20-byte IPv4 header,
        /// so the bytes reach the TCP header and option parsing.
        #[test]
        fn prop_importer_survives_corrupt_frames(
            framing in (any::<bool>(), any::<bool>()),
            frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..100), 0..8),
        ) {
            let recs: Vec<_> = frames
                .into_iter()
                .enumerate()
                .map(|(i, mut ip)| {
                    if ip.len() > 9 && ip[1] & 3 != 0 {
                        ip[0] = if ip[0] & 0x80 != 0 { 0x45 } else { 0x40 | (ip[0] & 0x0F) };
                        ip[9] = 6;
                    }
                    (i as u64, IPV4, ip, 0)
                })
                .collect();
            assert_matches_reference(&pcap_file(framing.0, framing.1, &recs));
        }

        /// `import_pcap` gives the same capture, or the same error, as
        /// the two-stage reference. Packets come in runs on one endpoint
        /// pair (each packet may flip direction) drawn from four
        /// endpoints, so ties in bytes sent, traffic not involving the
        /// server, runs and interleavings all occur. A run may follow a
        /// non-TCP frame, carry SACK or timestamp options or a zero IPv4
        /// total length (payload then comes from the original length),
        /// and may end in a packet with a malformed option or an
        /// overrunning data offset. Files use either magic and either
        /// framing, and start at a real epoch second.
        #[test]
        fn prop_import_matches_reference(
            framing in (any::<bool>(), any::<bool>()),
            runs in proptest::collection::vec(
                (0usize..4, 0usize..4, 1usize..5, 0usize..3, any::<u8>(), 0u8..64),
                0..30,
            ),
        ) {
            let ends = [SERVER, ([10, 0, 0, 1], 40_000), ([10, 0, 0, 2], 5001), ([10, 0, 0, 2], 40_001)];
            let mut sack = vec![1, 1, 5, 18];
            for v in [7u32, 19, 30, 41] {
                sack.extend_from_slice(&v.to_be_bytes());
            }
            let timestamp = [1, 1, 8, 10, 0, 0, 0, 1, 0, 0, 0, 2];
            let mut recs = Vec::new();
            let mut t = 1_500_000_000 * 1_000_000u64;
            for (a, b, len, p, flips, extra) in runs {
                if (2..8).contains(&extra) {
                    // A UDP datagram; under Ethernet framing some are
                    // labelled ARP instead. Both are skipped.
                    let mut udp = tcp_packet(ends[a], ends[b], 0, 0, 0, &[]);
                    udp[9] = 17;
                    recs.push((t, if extra < 5 { IPV4 } else { 0x0806 }, udp, 0));
                    t += 350_000;
                }
                let opts: &[u8] = match extra & 24 {
                    8 => &sack,
                    16 => &timestamp,
                    _ => &[],
                };
                for j in 0..len {
                    let (src, dst) = if flips >> j & 1 == 0 { (ends[a], ends[b]) } else { (ends[b], ends[a]) };
                    let payload = [0u32, 500, 1000][(p + j) % 3];
                    let mut ip = tcp_packet(src, dst, j as u32, u32::from(flips), payload, opts);
                    ip[33] |= flips & 0x07;
                    if extra & 32 != 0 {
                        ip[2..4].fill(0);
                    }
                    recs.push((t, IPV4, ip, payload));
                    t += 350_000;
                }
                let mut bad = tcp_packet(ends[a], ends[b], 0, 0, 0, &[8, 1, 0, 0]);
                match extra {
                    0 => recs.push((t, IPV4, bad, 0)),
                    1 => {
                        bad[32] = 0xF0;
                        recs.push((t, IPV4, bad, 0));
                    }
                    _ => {}
                }
            }
            assert_matches_reference(&pcap_file(framing.0, framing.1, &recs));
        }
    }
}
