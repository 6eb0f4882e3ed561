//! Batch submission-script generation for heterogeneous sites.
//!
//! §4.3: "anticipating these and future differences requires developing
//! scripts that perform various checks, resource allocation
//! specifications, and user prompts within the scripts for each computing
//! environment". Notre Dame runs UGE (`qsub`), ANVIL and Stampede3 run
//! Slurm (`sbatch`); this module renders one job specification into the
//! correct dialect for a site, with the environment checks the artifact's
//! `runme.sh` performs.

use crate::site::{SchedulerKind, SiteProfile};

/// A portable job specification.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job name.
    pub name: String,
    /// Nodes.
    pub nodes: u32,
    /// Cores per node to use.
    pub cores_per_node: u32,
    /// Walltime (s).
    pub walltime_s: f64,
    /// Command to run.
    pub command: String,
    /// Environment modules to load (site-specific names resolved here).
    pub modules: Vec<String>,
}

impl JobSpec {
    /// The paper's CFD job: one node, all its cores, a generous walltime.
    pub fn cfd_run(site: &SiteProfile, threads: u32) -> Self {
        JobSpec {
            name: "cups_cfd".into(),
            nodes: 1,
            cores_per_node: threads.min(site.cores_per_node),
            walltime_s: 2.0 * 3600.0,
            command: format!("sh runme.sh -t={}", threads.min(site.cores_per_node)),
            modules: vec!["openfoam".into(), "paraview".into()],
        }
    }
}

fn hhmmss(s: f64) -> String {
    let total = s.max(0.0).round() as u64;
    format!(
        "{:02}:{:02}:{:02}",
        total / 3600,
        (total % 3600) / 60,
        total % 60
    )
}

/// Render the submission script for a site.
pub fn render_script(site: &SiteProfile, spec: &JobSpec) -> String {
    // Clamp to the site's limits, as the artifact's checks do.
    let walltime = spec.walltime_s.min(site.max_walltime_s);
    let cores = spec.cores_per_node.min(site.cores_per_node);
    let mut out = String::from("#!/bin/bash\n");
    match site.scheduler {
        SchedulerKind::Uge => {
            out.push_str(&format!("#$ -N {}\n", spec.name));
            out.push_str(&format!("#$ -pe smp {cores}\n"));
            out.push_str(&format!("#$ -l h_rt={}\n", hhmmss(walltime)));
            out.push_str("#$ -q long\n");
        }
        SchedulerKind::Slurm => {
            out.push_str(&format!("#SBATCH --job-name={}\n", spec.name));
            out.push_str(&format!("#SBATCH --nodes={}\n", spec.nodes));
            out.push_str(&format!("#SBATCH --ntasks-per-node={cores}\n"));
            out.push_str(&format!("#SBATCH --time={}\n", hhmmss(walltime)));
            out.push_str("#SBATCH --partition=standard\n");
        }
    }
    out.push('\n');
    // Environment checks (the artifact's per-site preflight).
    out.push_str("set -euo pipefail\n");
    out.push_str("command -v python3 >/dev/null || { echo 'python3 missing' >&2; exit 1; }\n");
    for module in &spec.modules {
        out.push_str(&format!(
            "module load {module} || echo 'warning: module {module} unavailable' >&2\n"
        ));
    }
    out.push_str(&format!("export OMP_NUM_THREADS={cores}\n"));
    out.push('\n');
    out.push_str(&spec.command);
    out.push('\n');
    out
}

/// The submit command line for a site ("qsub" vs "sbatch").
pub fn submit_command(site: &SiteProfile, script_path: &str) -> String {
    match site.scheduler {
        SchedulerKind::Uge => format!("qsub {script_path}"),
        SchedulerKind::Slurm => format!("sbatch {script_path}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uge_dialect_for_notre_dame() {
        let site = SiteProfile::notre_dame_crc();
        let spec = JobSpec::cfd_run(&site, 64);
        let script = render_script(&site, &spec);
        assert!(script.contains("#$ -N cups_cfd"));
        assert!(script.contains("#$ -pe smp 64"));
        assert!(script.contains("#$ -l h_rt=02:00:00"));
        assert!(!script.contains("#SBATCH"));
        assert!(script.contains("OMP_NUM_THREADS=64"));
        assert_eq!(submit_command(&site, "job.sh"), "qsub job.sh");
    }

    #[test]
    fn slurm_dialect_for_anvil_and_stampede() {
        for site in [SiteProfile::anvil(), SiteProfile::stampede3()] {
            let spec = JobSpec::cfd_run(&site, 64);
            let script = render_script(&site, &spec);
            assert!(
                script.contains("#SBATCH --job-name=cups_cfd"),
                "{}",
                site.name
            );
            assert!(script.contains("#SBATCH --nodes=1"));
            assert!(script.contains("--time=02:00:00"));
            assert!(!script.contains("#$ -"));
            assert_eq!(submit_command(&site, "job.sh"), "sbatch job.sh");
        }
    }

    #[test]
    fn limits_clamped_to_site() {
        let site = SiteProfile::notre_dame_crc();
        let spec = JobSpec {
            name: "big".into(),
            nodes: 1,
            cores_per_node: 512,
            walltime_s: 100.0 * 3600.0,
            command: "true".into(),
            modules: vec![],
        };
        let script = render_script(&site, &spec);
        assert!(script.contains(&format!("smp {}", site.cores_per_node)));
        assert!(
            script.contains("h_rt=24:00:00"),
            "clamped to 24 h: {script}"
        );
    }

    #[test]
    fn thread_request_respects_node_size() {
        let site = SiteProfile::notre_dame_crc(); // 64-core nodes
        let spec = JobSpec::cfd_run(&site, 128);
        assert_eq!(spec.cores_per_node, 64);
        assert!(spec.command.contains("-t=64"));
    }

    #[test]
    fn preflight_checks_present() {
        let site = SiteProfile::anvil();
        let script = render_script(&site, &JobSpec::cfd_run(&site, 16));
        assert!(script.contains("set -euo pipefail"));
        assert!(script.contains("module load openfoam"));
        assert!(script.contains("command -v python3"));
    }
}
