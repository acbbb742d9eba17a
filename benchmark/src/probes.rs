//! Layer probes of the traced run: calibration and micro timings taken
//! around public calls, on the workload's own inputs. Each is the median
//! of five repetitions of at least 100 ms of calls (2 ms at smoke scale).

use std::time::{Duration, Instant};

use bytes::Bytes;
use eleos::batch::parse_batch;
use eleos::{Controller, PageMode, WriteBatch};
use eleos_flash::{ByteExtent, CostProfile, EblockAddr, FlashDevice, Geometry, WblockAddr};
use eleos_server::{Frame, FrameReader, FrameStep};

use crate::measure::{Params, Scale};
use crate::stats::median;
use crate::trace::now_ns;

#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub batch_put_ns_per_lpage: f64,
    pub batch_parse_ns_per_lpage: f64,
    pub batch_append_ns_per_lpage: f64,
    pub read_batch_ns_per_lpage: f64,
    pub map_hit_ns: f64,
    pub map_miss_ns: f64,
    pub flash_program_ns: f64,
    pub flash_read_ns: f64,
    pub flash_erase_ns: f64,
    pub proto_encode_ns_per_frame: f64,
    pub proto_decode_ns_per_frame: f64,
    /// Encode cost of the server-to-client frames alone: what the engine
    /// thread pays.
    pub proto_encode_reply_ns_per_frame: f64,
    pub proto_wire_bytes_per_payload_byte: f64,
    pub telemetry_on_cost_frac: f64,
}

const REPS: usize = 5;

fn rep_time(p: &Params) -> Duration {
    match p.scale {
        Scale::Full => Duration::from_millis(100),
        Scale::Smoke => Duration::from_millis(2),
    }
}

/// ns per unit of `body`, which returns how many units one call did.
fn per_unit(p: &Params, mut body: impl FnMut() -> u64) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let (t, mut units) = (Instant::now(), 0u64);
            while t.elapsed() < rep_time(p) {
                units += body();
            }
            t.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    median(&reps)
}

/// The probes every workload runs: `pages` are pages the workload wrote
/// (at least a few hundred), `present` LPIDs known to be stored.
pub fn run<C: Controller>(
    p: &Params,
    ctrl: &mut C,
    pages: &[(u64, &[u8])],
    present: &[u64],
) -> Probes {
    let mut out = Probes::default();
    let pages = &pages[..pages.len().min(4096)];
    let n = pages.len() as u64;

    let build = |chunk: &[(u64, &[u8])]| {
        let mut b = WriteBatch::new(PageMode::Variable);
        for (lpid, payload) in chunk {
            b.put(*lpid, payload).expect("put");
        }
        b
    };
    out.batch_put_ns_per_lpage = per_unit(p, || {
        std::hint::black_box(build(std::hint::black_box(pages)));
        n
    });
    let whole = build(pages);
    out.batch_parse_ns_per_lpage = per_unit(p, || {
        std::hint::black_box(parse_batch(whole.as_bytes(), whole.mode()).expect("parse")).len()
            as u64
    });
    // Client-sized batches coalesced into 64 KB groups, as `Frontend::flush`
    // does.
    let small: Vec<WriteBatch> = pages.chunks(4).map(build).collect();
    out.batch_append_ns_per_lpage = per_unit(p, || {
        let mut merged = WriteBatch::new(PageMode::Variable);
        for b in &small {
            merged.append_batch(b).expect("append");
            if merged.wire_len() >= 64 << 10 {
                merged = WriteBatch::new(PageMode::Variable);
            }
        }
        std::hint::black_box(merged);
        n
    });

    let groups: Vec<&[u64]> = present.chunks_exact(16).take(256).collect();
    if !groups.is_empty() {
        out.read_batch_ns_per_lpage = per_unit(p, || {
            for g in &groups {
                std::hint::black_box(ctrl.read_batch(g).expect("read_batch"));
            }
            16 * groups.len() as u64
        });
    }

    // Mapping lookups on unit 0: the same LPID over and over hits; one LPID
    // per translation page, cycling, misses whenever the map does not fit
    // in the cache.
    let per_page = ctrl.unit(0).config().map_entries_per_page as u64;
    let on_unit0: Vec<u64> = present
        .iter()
        .copied()
        .filter(|&l| ctrl.unit_of(l) == 0)
        .collect();
    if let Some(&hot) = on_unit0.first() {
        out.map_hit_ns = per_unit(p, || {
            for _ in 0..1024 {
                std::hint::black_box(ctrl.unit_mut(0).lpid_location(hot).expect("lookup"));
            }
            1024
        });
        let mut cold = on_unit0.clone();
        cold.sort_unstable();
        cold.dedup_by_key(|l| *l / per_page);
        let misses0 = ctrl.unit(0).snapshot().map_cache.misses;
        let mut lookups = 0u64;
        let ns = per_unit(p, || {
            for &l in &cold {
                std::hint::black_box(ctrl.unit_mut(0).lpid_location(l).expect("lookup"));
            }
            lookups += cold.len() as u64;
            cold.len() as u64
        });
        let missed = ctrl.unit(0).snapshot().map_cache.misses - misses0;
        // Only a miss timing if the lookups did miss.
        if missed * 2 > lookups {
            out.map_miss_ns = ns;
        }
    }

    (out.flash_program_ns, out.flash_read_ns, out.flash_erase_ns) =
        flash_costs(p, *ctrl.unit(0).device().geometry());
    out
}

/// Host ns of one WBLOCK program, one RBLOCK read and one EBLOCK erase on a
/// scratch device of geometry `geo`, as the controller issues them (the
/// program adopts a refcounted buffer, the read returns a view).
fn flash_costs(p: &Params, geo: Geometry) -> (f64, f64, f64) {
    let mut dev = FlashDevice::new(geo, CostProfile::high_end_cpu());
    let data = Bytes::from(vec![0xA5u8; geo.wblock_bytes as usize]);
    let mut reps = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..REPS {
        let (mut ns, mut ops) = ([0u64; 3], [0u64; 3]);
        let t = Instant::now();
        let mut eb = 0u32;
        while t.elapsed() < rep_time(p) {
            let addr = EblockAddr::new(
                eb % geo.channels,
                eb / geo.channels % geo.eblocks_per_channel,
            );
            eb += 1;
            let t0 = now_ns();
            for wb in 0..geo.wblocks_per_eblock {
                dev.program(
                    WblockAddr::new(addr.channel, addr.eblock, wb),
                    data.clone(),
                    &[],
                )
                .expect("program");
            }
            let t1 = now_ns();
            for wb in 0..geo.wblocks_per_eblock {
                let ext = ByteExtent::new(addr, wb as u64 * geo.wblock_bytes as u64, 1024);
                std::hint::black_box(dev.read_extent(ext).expect("read"));
            }
            let t2 = now_ns();
            dev.erase(addr).expect("erase");
            let t3 = now_ns();
            ns = [ns[0] + t1 - t0, ns[1] + t2 - t1, ns[2] + t3 - t2];
            ops = [
                ops[0] + geo.wblocks_per_eblock as u64,
                ops[1] + geo.wblocks_per_eblock as u64,
                ops[2] + 1,
            ];
        }
        for i in 0..3 {
            reps[i].push(ns[i] as f64 / ops[i].max(1) as f64);
        }
    }
    (median(&reps[0]), median(&reps[1]), median(&reps[2]))
}

fn is_reply(f: &Frame) -> bool {
    matches!(f, Frame::Ack { .. } | Frame::ReadResp { .. })
}

/// Replay the run's first frames (both directions, in order) through
/// `Frame::encode` and through `FrameReader::feed` + `next_frame` in the
/// 16 KB reads the server's reader threads make.
pub fn proto(p: &Params, frames: &[Frame], out: &mut Probes) {
    if frames.is_empty() {
        return;
    }
    let n = frames.len() as u64;
    out.proto_encode_ns_per_frame = per_unit(p, || {
        for f in frames {
            std::hint::black_box(f.encode());
        }
        n
    });
    let replies: Vec<&Frame> = frames.iter().filter(|f| is_reply(f)).collect();
    if !replies.is_empty() {
        out.proto_encode_reply_ns_per_frame = per_unit(p, || {
            for f in &replies {
                std::hint::black_box(f.encode());
            }
            replies.len() as u64
        });
    }
    let wire: Vec<u8> = frames.iter().flat_map(|f| f.encode()).collect();
    out.proto_decode_ns_per_frame = per_unit(p, || {
        let mut fr = FrameReader::new();
        let mut decoded = 0u64;
        for chunk in wire.chunks(16 << 10) {
            fr.feed(chunk);
            while let FrameStep::Frame(f) = fr.next_frame() {
                std::hint::black_box(f);
                decoded += 1;
            }
        }
        assert_eq!(
            decoded, n,
            "the replayed stream decodes to the frames that were encoded"
        );
        n
    });
    let payload: usize = frames
        .iter()
        .map(|f| match f {
            Frame::WriteBatch { pages, .. } => pages.iter().map(|(_, b)| b.len()).sum(),
            Frame::ReadResp { pages } => pages.iter().flatten().map(Vec::len).sum(),
            _ => 0,
        })
        .sum();
    out.proto_wire_bytes_per_payload_byte = wire.len() as f64 / payload.max(1) as f64;
}
