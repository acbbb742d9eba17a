//! Ablation studies: GC victim selection, hot/cold separation, checkpoint
//! cadence vs recovery time, ordered-write pipelining, log forward-pointer
//! resilience.
fn main() {
    eleos_bench::ablation::ablation_gc_policy().print();
    eleos_bench::ablation::ablation_hot_cold().print();
    eleos_bench::ablation::ablation_recovery_time().print();
    eleos_bench::ablation::ablation_pipelining().print();
    eleos_bench::ablation::ablation_log_standbys().print();
}
