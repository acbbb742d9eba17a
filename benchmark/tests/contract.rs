//! The declared benchmark (`BENCHMARK.json`), the tables the runner emits
//! from, and the build profile agree; the tracing wrapper is transparent.

use eleos::{Controller, Eleos, EleosConfig, PageMode, WriteBatch};
use eleos_benchmark::json::{self, Value};
use eleos_benchmark::report::{END_TO_END, PER_LAYER, WORKLOADS};
use eleos_benchmark::trace::{Recorder, TracedController};
use eleos_flash::{CostProfile, FlashDevice, Geometry};

fn repo_file(path: &str) -> String {
    let full = format!("{}/../{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{full}: {e}"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing {key}"))
}

#[test]
fn benchmark_json_declares_what_the_runner_emits() {
    let decl = json::parse(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let Value::Obj(fields) = &decl else {
        panic!("an object")
    };
    let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(
        decl.get("paths").unwrap().as_arr(),
        [Value::Str("benchmark".into())]
    );
    assert_eq!(
        decl.get("command").unwrap().as_arr(),
        [
            Value::Str("bash".into()),
            Value::Str("benchmark/run.sh".into())
        ]
    );

    let workloads: Vec<(&str, &str)> = decl
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let end_to_end = decl.get("end_to_end").unwrap().as_arr();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (d, m) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(
            (text(d, "name"), text(d, "unit"), text(d, "better")),
            (m.name, m.unit, m.better)
        );
        assert_eq!(
            d.get("bound").and_then(Value::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
        assert!(m.bound > 0.0 && m.bound <= 0.25);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", "lower")));

    let per_layer = decl.get("per_layer").unwrap().as_arr();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    assert!(per_layer.len() <= 128);
    for (d, m) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(
            (text(d, "name"), text(d, "unit"), text(d, "better")),
            (m.name, m.unit, m.better)
        );
    }
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    names.extend(WORKLOADS.iter().map(|w| w.0));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used once");
}

/// The lines of the `[profile.release]` table of a manifest.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split_whitespace().collect::<String>())
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

#[test]
fn release_profile_equals_the_repos() {
    let root = release_profile(&repo_file("Cargo.toml"));
    assert!(!root.is_empty(), "the root manifest has a release profile");
    assert_eq!(release_profile(&repo_file("benchmark/Cargo.toml")), root);
}

/// A scripted run through any controller: writes with overwrites, reads,
/// checkpoint, maintenance, crash and recover; returns the snapshot JSON.
fn script<C: Controller>(wrap: impl Fn(Eleos) -> C) -> String {
    let cfg = EleosConfig::test_small();
    let dev = FlashDevice::new(Geometry::tiny(), CostProfile::unit());
    let mut c = wrap(Eleos::format(dev, cfg.clone()).unwrap());
    let sid = c.open_session().unwrap();
    for i in 0..200u64 {
        let mut b = WriteBatch::new(PageMode::Variable);
        b.put(i % 24, &vec![i as u8; 100 + (i as usize * 37) % 900])
            .unwrap();
        b.put((i * 7) % 24, &vec![!i as u8; 64 + (i as usize * 11) % 500])
            .unwrap();
        if i % 3 == 0 {
            c.write_sessions(&b, &[(sid, i / 3 + 1)]).unwrap();
        } else {
            c.write(&b).unwrap();
        }
        c.read(i % 24).unwrap();
    }
    c.read_batch(&[1, 2, 3]).unwrap();
    c.delete(&[5]).unwrap();
    c.checkpoint().unwrap();
    c.maintenance().unwrap();
    c.drain();
    let mut c = C::recover(c.crash(), &cfg).unwrap();
    assert_eq!(c.session_highest(sid), Some(67));
    c.read(1).unwrap();
    c.snapshot().to_json()
}

#[test]
fn traced_controller_is_transparent() {
    let bare = script(|e| e);
    let traced = script(|e| {
        let rec = Recorder::default();
        rec.set_on(true);
        TracedController::new(e, rec)
    });
    assert_eq!(bare, traced);
}

#[test]
fn spans_nest_and_self_times_sum_to_the_root() {
    use eleos_benchmark::trace::Name;
    let mut rec = Recorder::default();
    rec.set_on(true);
    let root = rec.enter();
    rec.span(Name::Gen, || {
        std::hint::black_box((0..10_000u64).sum::<u64>())
    });
    rec.span(Name::BatchPut, || {
        std::hint::black_box((0..10_000u64).sum::<u64>())
    });
    rec.exit(root, Name::Request);
    let total: u64 = [Name::Request, Name::Gen, Name::BatchPut]
        .iter()
        .map(|&n| rec.agg(n).self_ns)
        .sum();
    assert_eq!(total, rec.root_ns());
    assert_eq!(rec.agg(Name::Request).total_ns, rec.root_ns());
    assert_eq!(rec.span_count(), 3);
    rec.set_on(false);
    assert!(!rec.enter(), "nothing is recorded with the switch off");
}
