//! Real libpcap-format export/import of simulated captures.
//!
//! The simulator's packets carry structured headers rather than bytes,
//! so export synthesizes genuine IPv4 + TCP wire bytes (including SACK
//! options and valid IPv4 header checksums). Files use the nanosecond
//! pcap magic and `LINKTYPE_RAW` (101, raw IPv4), and are snapped to
//! headers-only (like `tcpdump -s 96`): `orig_len` records the true
//! on-wire size while payload bytes are not stored. Non-TCP simulator
//! packets (probes, background filler) are skipped on export.
//!
//! Addresses: node `n` becomes `10.(n>>16).(n>>8 & 255).(n & 255)`.
//! Ports: the data/tap side is 5001 (an iperf/NDT-style server port),
//! the peer side is `10000 + (flow % 50000)`.

use csig_netsim::{Capture, Direction, FlowId, NodeId, PacketRecord, TcpHeader};
use std::io::{self, Write};

const PCAP_MAGIC_NANO: u32 = 0xA1B2_3C4D;
const LINKTYPE_RAW: u32 = 101;
const SNAPLEN: u32 = 96;

/// Synthesized IPv4 address for a node.
pub fn node_ip(node: NodeId) -> [u8; 4] {
    let n = node.0;
    [10, (n >> 16) as u8, (n >> 8) as u8, n as u8]
}

/// Synthesized peer TCP port for a flow.
pub fn flow_port(flow: FlowId) -> u16 {
    10_000 + (flow.0 % 50_000) as u16
}

/// The tap-side TCP port (NDT-style server port).
pub const TAP_PORT: u16 = 5001;

fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum = 0u32;
    for chunk in header.chunks(2) {
        let word = ((chunk[0] as u32) << 8) | (*chunk.get(1).unwrap_or(&0) as u32);
        sum += word;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Longest record [`write_pcap`] emits: the 16-byte record header,
/// IPv4 and TCP headers without options, and NOP, NOP, SACK with three
/// blocks.
const MAX_RECORD: usize = 16 + 20 + 20 + 4 + 3 * 8;

/// Write a capture as a pcap file. Returns the number of packets
/// written (TCP only). Each record is encoded into one stack buffer and
/// handed to `w` in a single `write_all`.
pub fn write_pcap<W: Write>(cap: &Capture, mut w: W) -> io::Result<usize> {
    // Global header.
    w.write_all(&PCAP_MAGIC_NANO.to_le_bytes())?;
    w.write_all(&2u16.to_le_bytes())?; // version major
    w.write_all(&4u16.to_le_bytes())?; // version minor
    w.write_all(&0i32.to_le_bytes())?; // thiszone
    w.write_all(&0u32.to_le_bytes())?; // sigfigs
    w.write_all(&SNAPLEN.to_le_bytes())?;
    w.write_all(&LINKTYPE_RAW.to_le_bytes())?;

    let mut buf = [0u8; MAX_RECORD];
    let mut written = 0;
    for rec in &cap.records {
        let Some(h) = rec.pkt.tcp() else { continue };
        let len = encode_record(&mut buf, rec, h, cap.node)?;
        w.write_all(&buf[..len])?;
        written += 1;
    }
    Ok(written)
}

/// Encode one record (pcap record header, then the IPv4+TCP headers of
/// the simulated packet) into `buf`; returns the bytes used. A packet
/// too long for the 16-bit IPv4 total length is `InvalidInput`.
fn encode_record(
    buf: &mut [u8; MAX_RECORD],
    rec: &PacketRecord,
    h: &TcpHeader,
    tap: NodeId,
) -> io::Result<usize> {
    let pkt = &rec.pkt;
    // Determine addressing from the tap's point of view.
    let (src_ip, dst_ip, sport, dport) = match rec.dir {
        Direction::Out => (
            node_ip(tap),
            node_ip(if pkt.dst == tap { pkt.src } else { pkt.dst }),
            TAP_PORT,
            flow_port(pkt.flow),
        ),
        Direction::In => (
            node_ip(pkt.src),
            node_ip(tap),
            flow_port(pkt.flow),
            TAP_PORT,
        ),
    };

    // TCP options: SACK blocks if present (NOP, NOP, kind 5), which
    // keeps the option area a multiple of 4 bytes without padding.
    let nblocks = h.sack.iter().flatten().count();
    let options = if nblocks == 0 { 0 } else { 4 + 8 * nblocks };
    let incl = 20 + 20 + options; // headers only (snapped)
    let ip_total = u16::try_from(incl + h.payload_len as usize).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "TCP payload too long for an IPv4 packet",
        )
    })?;
    let mut flags = 0u8;
    if h.flags.fin() {
        flags |= 0x01;
    }
    if h.flags.syn() {
        flags |= 0x02;
    }
    if h.flags.rst() {
        flags |= 0x04;
    }
    if h.flags.ack() {
        flags |= 0x10;
    }

    let mut n = 0;
    let mut put = |bytes: &[u8]| {
        buf[n..n + bytes.len()].copy_from_slice(bytes);
        n += bytes.len();
    };
    // Record header.
    let ns = rec.time.as_nanos();
    put(&((ns / 1_000_000_000) as u32).to_le_bytes());
    put(&((ns % 1_000_000_000) as u32).to_le_bytes());
    put(&(incl as u32).to_le_bytes()); // incl_len (snapped)
    put(&(incl as u32 + h.payload_len).to_le_bytes()); // orig_len
                                                       // IPv4 header.
    put(&[0x45, 0]);
    put(&ip_total.to_be_bytes());
    put(&(pkt.id.0 as u16).to_be_bytes()); // identification
    put(&0x4000u16.to_be_bytes()); // DF
    put(&[64, 6, 0, 0]); // TTL, TCP, checksum placeholder
    put(&src_ip);
    put(&dst_ip);
    // TCP header.
    put(&sport.to_be_bytes());
    put(&dport.to_be_bytes());
    put(&h.seq.to_be_bytes());
    put(&h.ack.to_be_bytes());
    put(&[((5 + options / 4) as u8) << 4, flags]);
    put(&(h.window.min(65_535) as u16).to_be_bytes());
    put(&[0, 0, 0, 0]); // TCP checksum not computed (like offload), urgent pointer
    if nblocks > 0 {
        put(&[1, 1, 5, 2 + 8 * nblocks as u8]);
        for (s, e) in h.sack.iter().flatten() {
            put(&s.to_be_bytes());
            put(&e.to_be_bytes());
        }
    }
    let csum = ipv4_checksum(&buf[16..36]);
    buf[26..28].copy_from_slice(&csum.to_be_bytes());
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap_import::{import_pcap, ServerSelector};
    use csig_netsim::{Packet, PacketId, PacketKind, SimTime, TcpFlags, NO_SACK, TCP_HEADER_BYTES};
    use std::collections::{HashMap, HashSet};

    /// A TCP record between the tap `NodeId(0)` and peer `NodeId(100 +
    /// flow)` (so each flow gets its own address and port).
    fn tcp_record(dir: Direction, t_ns: u64, flow: u32, tcp: TcpHeader) -> PacketRecord {
        let (tap, peer) = (NodeId(0), NodeId(100 + flow));
        let (src, dst) = match dir {
            Direction::Out => (tap, peer),
            Direction::In => (peer, tap),
        };
        PacketRecord {
            time: SimTime::from_nanos(t_ns),
            dir,
            pkt: Packet {
                id: PacketId(3),
                flow: FlowId(flow),
                src,
                dst,
                size: tcp.payload_len + TCP_HEADER_BYTES,
                sent_at: SimTime::from_nanos(t_ns),
                kind: PacketKind::Tcp(tcp),
            },
        }
    }

    /// Export `cap` (TCP records only, in time order, SACK blocks
    /// packed to the front), import it back with the tap port as server
    /// and check every field the file carries. Import renumbers flows,
    /// so flows are compared by partition, not by id.
    fn assert_round_trip(cap: &Capture) {
        let mut buf = Vec::new();
        assert_eq!(write_pcap(cap, &mut buf).unwrap(), cap.records.len());
        let got = import_pcap(&buf[..], ServerSelector::Port(TAP_PORT)).unwrap();
        assert_eq!(got.records.len(), cap.records.len());
        // Import rebases time to the first packet's whole second.
        let base = cap
            .records
            .first()
            .map_or(0, |r| r.time.as_nanos() / 1_000_000_000 * 1_000_000_000);
        let mut flows = HashMap::new();
        for (orig, got) in cap.records.iter().zip(&got.records) {
            assert_eq!(got.time.as_nanos(), orig.time.as_nanos() - base);
            assert_eq!(orig.dir, got.dir);
            let (oh, gh) = (orig.pkt.tcp().unwrap(), got.pkt.tcp().unwrap());
            assert_eq!(oh.seq, gh.seq);
            assert_eq!(oh.ack, gh.ack);
            assert_eq!(oh.flags, gh.flags);
            assert_eq!(oh.payload_len, gh.payload_len);
            assert_eq!(oh.window.min(65_535), gh.window);
            assert_eq!(oh.sack, gh.sack);
            assert_eq!(
                *flows.entry(orig.pkt.flow).or_insert(got.pkt.flow),
                got.pkt.flow
            );
        }
        let imported: HashSet<FlowId> = flows.values().copied().collect();
        assert_eq!(imported.len(), flows.len(), "two flows merged on import");
    }

    #[test]
    fn roundtrip_preserves_tcp_fields() {
        let tcp = |seq, ack, payload_len, sack| TcpHeader {
            seq,
            ack,
            flags: TcpFlags::ACK,
            payload_len,
            window: 65_000,
            sack,
        };
        let mut cap = Capture::new(NodeId(0));
        cap.records.push(tcp_record(
            Direction::Out,
            1_234_567_891,
            42,
            tcp(1000, 2000, 1448, NO_SACK),
        ));
        cap.records.push(tcp_record(
            Direction::In,
            2_000_000_003,
            42,
            tcp(
                2000,
                2448,
                0,
                [Some((3000, 4448)), Some((6000, 7448)), None],
            ),
        ));
        assert_round_trip(&cap);
    }

    proptest::proptest! {
        /// Random TCP records keep every field the file carries, and
        /// their flow partition, through `write_pcap` → `import_pcap`.
        #[test]
        fn prop_roundtrip_preserves_tcp_fields(recs in proptest::collection::vec(
            (
                (0u64..2_000_000_000, proptest::prelude::any::<bool>(), 0u32..4),
                (proptest::prelude::any::<u32>(), proptest::prelude::any::<u32>(), 0u8..16),
                (0u32..2000, proptest::prelude::any::<u32>(), 0usize..4, proptest::prelude::any::<u32>()),
            ),
            1..40,
        )) {
            let mut cap = Capture::new(NodeId(0));
            let mut t = 0;
            for ((dt, out, flow), (seq, ack, flags), (payload_len, window, nblocks, s)) in recs {
                t += dt;
                let mut sack = NO_SACK;
                for (i, slot) in sack.iter_mut().enumerate().take(nblocks) {
                    let start = s.wrapping_add(i as u32 * 3000);
                    *slot = Some((start, start.wrapping_add(1448)));
                }
                let dir = if out { Direction::Out } else { Direction::In };
                let tcp = TcpHeader { seq, ack, flags: TcpFlags(flags), payload_len, window, sack };
                cap.records.push(tcp_record(dir, t, flow, tcp));
            }
            assert_round_trip(&cap);
        }
    }

    /// A hand-built capture that reaches every branch of the encoder:
    /// both directions, an `Out` record addressed to the tap, 0–3 SACK
    /// blocks (one set with a gap), every flag, windows above 65,535,
    /// a timestamp pair crossing a second boundary, a 16-bit packet id
    /// and flow port wrap, and a non-TCP record.
    fn golden_capture() -> Capture {
        let tap = NodeId(0x01_0203);
        let rec = |t_ns: u64, dir, src, dst, id: u64, flow: u32, tcp: TcpHeader| PacketRecord {
            time: SimTime::from_nanos(t_ns),
            dir,
            pkt: Packet {
                id: PacketId(id),
                flow: FlowId(flow),
                src,
                dst,
                size: tcp.payload_len + TCP_HEADER_BYTES,
                sent_at: SimTime::from_nanos(t_ns),
                kind: PacketKind::Tcp(tcp),
            },
        };
        let hdr = |seq, ack, flags, payload_len, window, sack| TcpHeader {
            seq,
            ack,
            flags,
            payload_len,
            window,
            sack,
        };
        let (peer, far) = (NodeId(7), NodeId(70_000));
        let mut cap = Capture::new(tap);
        cap.records.push(rec(
            999_999_999,
            Direction::Out,
            tap,
            peer,
            1,
            3,
            hdr(0xDEAD_BEEF, 0, TcpFlags::SYN, 0, 70_000, NO_SACK),
        ));
        cap.records.push(rec(
            1_000_000_001,
            Direction::In,
            peer,
            tap,
            2,
            3,
            hdr(
                77,
                0xDEAD_BEF0,
                TcpFlags::SYN | TcpFlags::ACK,
                0,
                65_535,
                [Some((1, 2)), None, None],
            ),
        ));
        cap.records.push(PacketRecord {
            time: SimTime::from_nanos(1_500_000_000),
            dir: Direction::Out,
            pkt: Packet {
                id: PacketId(3),
                flow: FlowId(3),
                src: tap,
                dst: peer,
                size: 100,
                sent_at: SimTime::from_nanos(1_500_000_000),
                kind: PacketKind::Background,
            },
        });
        cap.records.push(rec(
            2_000_000_000,
            Direction::Out,
            far,
            tap,
            0x1_0004,
            60_123,
            hdr(
                5,
                6,
                TcpFlags::ACK | TcpFlags::FIN,
                1448,
                65_536,
                [Some((10, 20)), Some((30, 40)), None],
            ),
        ));
        cap.records.push(rec(
            3_123_456_789,
            Direction::In,
            far,
            tap,
            5,
            60_123,
            hdr(
                u32::MAX,
                u32::MAX - 1,
                TcpFlags::RST,
                0,
                u32::MAX,
                [
                    Some((100, 200)),
                    Some((300, 400)),
                    Some((0xFFFF_FF00, 0xFFFF_FFFF)),
                ],
            ),
        ));
        cap.records.push(rec(
            3_123_456_790,
            Direction::Out,
            tap,
            peer,
            6,
            3,
            hdr(
                1000,
                2000,
                TcpFlags::ACK,
                100,
                1,
                [Some((11, 22)), None, Some((33, 44))],
            ),
        ));
        cap
    }

    /// `write_pcap` output for [`golden_capture`], recorded from the
    /// original `Vec`-building encoder.
    const GOLDEN_HEX: &str = concat!(
        "4d3cb2a1020004000000000000000000600000006500000000000000ffc99a3b28000000280000004500002800014000",
        "400624c50a0102030a00000713892713deadbeef000000005002ffff0000000001000000010000003400000034000000",
        "4500003400024000400624b80a0000070a010203271313890000004ddeadbef08012ffff000000000101050a00000001",
        "0000000202000000000000003c000000e4050000450005e40004400040060d9c0a0102030a01117013894e9b00000005",
        "00000006a011ffff00000000010105120000000a000000140000001e000000280300000015cd5b074400000044000000",
        "45000044000540004006133b0a0111700a0102034e9b1389fffffffffffffffec004ffff000000000101051a00000064",
        "000000c80000012c00000190ffffff00ffffffff0300000016cd5b073c000000a0000000450000a00006400040062448",
        "0a0102030a00000713892713000003e8000007d0a010000100000000010105120000000b00000016000000210000002c",
    );

    #[test]
    fn export_bytes_match_golden() {
        let golden: Vec<u8> = (0..GOLDEN_HEX.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN_HEX[i..i + 2], 16).unwrap())
            .collect();
        let mut buf = Vec::new();
        assert_eq!(write_pcap(&golden_capture(), &mut buf).unwrap(), 5);
        assert_eq!(buf, golden);
    }

    #[test]
    fn rejects_payload_beyond_the_ipv4_total_length() {
        let tcp = |payload_len| TcpHeader {
            seq: 1,
            ack: 1,
            flags: TcpFlags::ACK,
            payload_len,
            window: 65_535,
            sack: NO_SACK,
        };
        // 40 header bytes plus 65,495 payload bytes is the largest
        // IPv4 packet; one more byte does not fit the total length.
        let mut cap = Capture::new(NodeId(0));
        cap.records
            .push(tcp_record(Direction::Out, 0, 1, tcp(65_495)));
        assert_round_trip(&cap);
        cap.records
            .push(tcp_record(Direction::Out, 1, 1, tcp(65_496)));
        let err = write_pcap(&cap, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn non_tcp_packets_are_skipped_on_export() {
        let mut cap = Capture::new(NodeId(0));
        cap.records.push(PacketRecord {
            time: SimTime::ZERO,
            dir: Direction::Out,
            pkt: Packet {
                id: PacketId(0),
                flow: FlowId(0),
                src: NodeId(0),
                dst: NodeId(1),
                size: 100,
                sent_at: SimTime::ZERO,
                kind: PacketKind::Background,
            },
        });
        let mut buf = Vec::new();
        assert_eq!(write_pcap(&cap, &mut buf).unwrap(), 0);
        assert_eq!(buf.len(), 24); // just the global header
    }

    #[test]
    fn ipv4_checksum_known_vector() {
        // Example from RFC 1071 style: verify checksum verifies itself.
        let mut hdr = vec![
            0x45, 0x00, 0x00, 0x3c, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06, 0x00, 0x00, 0xac, 0x10,
            0x0a, 0x63, 0xac, 0x10, 0x0a, 0x0c,
        ];
        let sum = ipv4_checksum(&hdr);
        hdr[10..12].copy_from_slice(&sum.to_be_bytes());
        // Re-checksumming a valid header yields zero.
        assert_eq!(ipv4_checksum(&hdr), 0);
    }

    #[test]
    fn node_addressing_is_injective_for_small_ids() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..10_000u32 {
            assert!(seen.insert(node_ip(NodeId(n))));
        }
    }
}
