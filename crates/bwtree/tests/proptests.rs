//! Property tests: the Bw-tree against a `BTreeMap` model, over both ELEOS
//! page modes, under tight caches that force constant paging.

use eleos::{Eleos, EleosConfig, PageMode};
use eleos_bwtree::{BwTree, BwTreeConfig, EleosStore};
use eleos_flash::{CostProfile, FlashDevice, Geometry};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn tree(mode: PageMode, cache_pages: usize) -> BwTree<EleosStore> {
    let dev = FlashDevice::new(Geometry::tiny(), CostProfile::unit());
    let cfg = EleosConfig {
        page_mode: mode,
        ckpt_log_bytes: 1024 * 1024,
        max_user_lpid: 1 << 14,
        ..EleosConfig::test_small()
    };
    let ssd = Eleos::format(dev, cfg).unwrap();
    BwTree::new(
        EleosStore::new(ssd),
        BwTreeConfig {
            cache_pages,
            write_buffer_bytes: 32 * 1024,
        },
    )
}

#[derive(Debug, Clone)]
enum TreeOp {
    Upsert(u64, u8, u8),
    Get(u64),
}

fn op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        3 => (0u64..3000, any::<u8>(), 1u8..200).prop_map(|(k, s, l)| TreeOp::Upsert(k, s, l)),
        1 => (0u64..3000).prop_map(TreeOp::Get),
    ]
}

fn val(k: u64, seed: u8, len: u8) -> Vec<u8> {
    (0..len as usize).map(|i| (k as u8) ^ seed ^ i as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn matches_btreemap_model(
        ops in prop::collection::vec(op(), 1..400),
        cache in 2usize..12,
    ) {
        let mut t = tree(PageMode::Variable, cache);
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for o in &ops {
            match o {
                TreeOp::Upsert(k, s, l) => {
                    let v = val(*k, *s, *l);
                    t.upsert(*k, v.clone()).unwrap();
                    model.insert(*k, v);
                }
                TreeOp::Get(k) => {
                    prop_assert_eq!(t.get(*k).unwrap(), model.get(k).cloned(), "key {}", k);
                }
            }
        }
        for (k, v) in &model {
            let got = t.get(*k).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v), "final key {}", k);
        }
    }

    #[test]
    fn page_modes_equivalent(ops in prop::collection::vec(op(), 1..150)) {
        let mut tv = tree(PageMode::Variable, 6);
        let mut tf = tree(PageMode::Fixed(4096), 6);
        for o in &ops {
            match o {
                TreeOp::Upsert(k, s, l) => {
                    let v = val(*k, *s, *l);
                    tv.upsert(*k, v.clone()).unwrap();
                    tf.upsert(*k, v).unwrap();
                }
                TreeOp::Get(k) => {
                    prop_assert_eq!(tv.get(*k).unwrap(), tf.get(*k).unwrap());
                }
            }
        }
        // Same logical structure regardless of page mode.
        prop_assert_eq!(tv.page_count(), tf.page_count());
    }
}
