//! Table-driven error-path coverage for `parse_conf`.
//!
//! Every rejected conf must carry the 1-based line number of the
//! offending directive (the CLI renders it as `CONF001 … line N`) and
//! a message precise enough to fix the file from. Each case here is
//! `(name, conf text, expected line, message fragment)`.

use iolint::parse_conf;

struct Case {
    name: &'static str,
    conf: &'static str,
    line: usize,
    msg: &'static str,
}

const CASES: &[Case] = &[
    Case {
        name: "unknown-directive",
        conf: "daemon a sampler\nfrobnicate x\n",
        line: 2,
        msg: "unknown directive: frobnicate",
    },
    Case {
        name: "daemon-usage",
        conf: "daemon a\n",
        line: 1,
        msg: "usage: daemon <name> <sampler|l1|l2>",
    },
    Case {
        name: "unknown-role",
        conf: "daemon a router\n",
        line: 1,
        msg: "unknown role: router",
    },
    Case {
        name: "duplicate-daemon-name",
        conf: "daemon a sampler\ndaemon b l1\ndaemon a l2\n",
        line: 3,
        msg: "duplicate daemon name: a",
    },
    Case {
        name: "setting-before-daemon",
        conf: "upstream agg\n",
        line: 1,
        msg: "`upstream` before any `daemon`",
    },
    Case {
        name: "tag-needs-name",
        conf: "tag\n",
        line: 1,
        msg: "tag needs a name",
    },
    Case {
        name: "bad-rate",
        conf: "daemon a sampler\n  rate fast\n",
        line: 2,
        msg: "bad rate: fast",
    },
    Case {
        name: "bad-batch-zero",
        conf: "daemon a sampler\n  batch 0\n",
        line: 2,
        msg: "bad batch (want >= 1): 0",
    },
    Case {
        name: "bad-queue-capacity",
        conf: "daemon a sampler\n  queue capacity=many\n",
        line: 2,
        msg: "bad capacity: many",
    },
    Case {
        name: "unknown-queue-setting",
        conf: "daemon a sampler\n  queue color=red\n",
        line: 2,
        msg: "unknown queue setting: color",
    },
    Case {
        name: "unknown-queue-policy",
        conf: "daemon a sampler\n  queue policy=yolo\n",
        line: 2,
        msg: "unknown policy: yolo",
    },
    Case {
        name: "overload-not-key-value",
        conf: "daemon a sampler\n  overload rate\n",
        line: 2,
        msg: "overload setting must be key=value: rate",
    },
    Case {
        name: "overload-missing-rate",
        conf: "daemon a sampler\n  overload sample=30\n",
        line: 2,
        msg: "overload needs rate=<msgs/sec> (> 0)",
    },
    Case {
        name: "overload-nonpositive-rate",
        conf: "daemon a sampler\n  overload rate=-5\n",
        line: 2,
        msg: "overload needs rate=<msgs/sec> (> 0)",
    },
    Case {
        name: "bad-overload-window",
        conf: "daemon a sampler\n  overload rate=10 window-ms=soon\n",
        line: 2,
        msg: "bad overload window-ms: soon",
    },
    Case {
        name: "unknown-overload-setting",
        conf: "daemon a sampler\n  overload rate=10 color=red\n",
        line: 2,
        msg: "unknown overload setting: color",
    },
    Case {
        name: "wal-missing-capacity",
        conf: "daemon a sampler\n  wal fsync-every=8\n",
        line: 2,
        msg: "wal needs capacity=<n>",
    },
    Case {
        name: "bad-wal-capacity",
        conf: "daemon a sampler\n  wal capacity=big\n",
        line: 2,
        msg: "bad wal capacity: big",
    },
    Case {
        name: "unknown-wal-setting",
        conf: "daemon a sampler\n  wal capacity=64 color=red\n",
        line: 2,
        msg: "unknown wal setting: color",
    },
    Case {
        name: "overload-window-out-of-range",
        conf: "daemon a l1\n  overload rate=10 window-ms=99999999999999999\n",
        line: 2,
        msg: "overload window-ms out of range: 99999999999999999",
    },
    Case {
        name: "standby-before-upstream",
        conf: "daemon a sampler\n  standby b\n",
        line: 2,
        msg: "`standby` needs an `upstream` first",
    },
    Case {
        name: "link-off-role",
        conf: "daemon a sampler\n  upstream b\n  link site-net\n",
        line: 3,
        msg: "`a` uses link `ugni`, not `site-net`",
    },
    Case {
        name: "outage-usage",
        conf: "daemon a sampler\noutage a 5\n",
        line: 2,
        msg: "usage: outage <daemon> <from_s> <until_s>",
    },
    Case {
        name: "bad-outage-from",
        conf: "outage a x 10\n",
        line: 1,
        msg: "bad from: x",
    },
    Case {
        name: "workload-not-key-value",
        conf: "workload duration\n",
        line: 1,
        msg: "workload setting must be key=value: duration",
    },
    Case {
        name: "unknown-workload-setting",
        conf: "workload cadence=5\n",
        line: 1,
        msg: "unknown workload setting: cadence",
    },
    Case {
        name: "bad-workload-duration",
        conf: "workload duration=long\n",
        line: 1,
        msg: "bad workload duration: long",
    },
    Case {
        name: "workload-accuracy-floor-range",
        conf: "workload accuracy-floor=1.5\n",
        line: 1,
        msg: "workload accuracy-floor must be in [0, 1]: 1.5",
    },
];

#[test]
fn every_error_case_reports_the_offending_line() {
    for c in CASES {
        let err = parse_conf(c.conf)
            .err()
            .unwrap_or_else(|| panic!("{}: conf unexpectedly parsed", c.name));
        assert_eq!(
            err.line, c.line,
            "{}: wrong line in `{err}` (want {})",
            c.name, c.line
        );
        assert!(
            err.msg.contains(c.msg),
            "{}: message `{}` does not mention `{}`",
            c.name,
            err.msg,
            c.msg
        );
    }
}

#[test]
fn error_display_includes_the_line_number() {
    let err = parse_conf("daemon a sampler\ndaemon a l1\n").unwrap_err();
    let rendered = err.to_string();
    assert!(
        rendered.contains("line 2"),
        "Display must cite the line: {rendered}"
    );
}

/// Comments and blank lines must not shift the reported numbers.
#[test]
fn comments_do_not_shift_line_numbers() {
    let err = parse_conf("# preamble\n\ndaemon a sampler # trailing\n\n  rate fast\n").unwrap_err();
    assert_eq!(err.line, 5);
    assert!(err.msg.contains("bad rate: fast"));
}
