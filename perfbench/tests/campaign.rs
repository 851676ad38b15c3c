//! The traced rebuild of a campaign must be the campaign.

use pcm_core::EccChoice;
use pcm_perfbench::lifetime::{self, CampaignTrace, Scale};
use pcm_perfbench::report::Report;
use pcm_trace::SpecApp;
use pcm_util::Pool;

#[test]
fn rebuilt_campaign_equals_run_campaign_on() {
    // 130 lines: two whole batches and a partial third one.
    let scale = Scale {
        lines: 130,
        endurance: 1_500.0,
        sample_writes: 8,
    };
    let cfgs = lifetime::campaigns(EccChoice::Ecp6, &[SpecApp::Milc, SpecApp::Lbm], 5, scale);
    let pool = Pool::new(lifetime::THREADS);
    let reference = lifetime::run_all(&pool, &cfgs);
    for (cfg, want) in cfgs.iter().zip(&reference) {
        assert!(lifetime::plausible(want, cfg), "{want:?}");
        let mut trace = CampaignTrace::default();
        let got = lifetime::rebuilt_campaign(&pool, cfg, &mut trace);
        assert_eq!(&got, want);
        assert_eq!(trace.batch_s.len(), 3);
        assert!(trace.demand_writes >= (cfg.lines as u64) * cfg.line.max_writes);
    }

    let mut report = Report::new();
    lifetime::traced(&pool, &cfgs, &reference, &mut report);
    assert_eq!((report.attempted(), report.failed()), (2, 0));
    assert_eq!(report.value("pool.jobs"), Some(6.0));
}
