//! The `df3-experiments` command line rejects what it cannot run.

use std::process::{Command, Output};

fn df3(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_df3-experiments"))
        .args(args)
        .output()
        .expect("spawn df3-experiments")
}

#[test]
fn unknown_ids_subcommands_and_flags_fail_listing_the_valid_ids() {
    for bad in [
        &["e99"][..],
        &["help"],
        &["e1", "e13x"],
        &["bench_pr9"],
        &["--fsat"],
        &["bench", "--fsat"],
    ] {
        let out = df3(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("experiment ids: e1 e2") && err.contains("e20"),
            "{bad:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{bad:?} ran something");
    }
}

#[test]
fn a_known_experiment_id_runs() {
    let out = df3(&["E13", "--fast"]);
    assert!(out.status.success(), "{:?}", out);
    assert!(String::from_utf8_lossy(&out.stdout).contains("done in"));
}

#[test]
fn subcommands_keep_their_own_argument_errors() {
    let out = df3(&["report", "--preset", "nowhere"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown preset"));
}
