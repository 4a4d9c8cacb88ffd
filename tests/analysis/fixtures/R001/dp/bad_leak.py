"""Known-bad for R001: a public dp/ function releases raw counts.

Fixture only — parsed by the analyzer, never imported or executed.
"""


def release_count(query, db):
    true_count = count_query(query, db)
    return true_count  # leak: no mechanism, no @declassified


def log_sensitivity(oracle):
    print(oracle.base_count)  # leak: raw count to stdout


def release_derived(query, db):
    doubled = 2 * count_query(query, db)
    return doubled  # leak survives arithmetic: taint propagates


def release_probe(session, rows):
    return session.probe("R", rows)  # leak: probes are tuple sensitivities
