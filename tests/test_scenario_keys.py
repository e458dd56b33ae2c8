"""Every scenario key either changes a report table or is rejected.

For each key of the scenario-file schema, one value is changed in a tiny
scenario and both runners are run on it.  Only the tables are compared: the
manifest's scenario hash changes with every key.
"""

from gladsim import config
from gladsim.errors import GladsimError
from gladsim.experiments import run_latency_sweep, run_onboarding_study

TINY = {
    "grid": {"loads": "0.5", "spans_km": "20", "seeds": "1", "n_loops": "100"},
    "glad": {"total_machines": "2", "profiling_samples": "500", "add_every": "60",
             "additions": "1", "alpha_grid": "0.05, 0.3", "machines_grid": "1, 2"},
}

# Matching thresholds and bands show only when some pool entries can match:
# pool entry 3 is three stiffness bands from entry 0, and entry 9 three texture bands.
POOL4 = {"glad": {"kind_pool_size": "4", "total_machines": "4"}}
POOL10 = {"glad": {"kind_pool_size": "10", "total_machines": "10"}}

# (section, key) -> (changed value, overrides of the tiny scenario)
PERTURBATIONS = {
    ("pon", "downstream_rate_bps"): ("5e9", {}),
    ("pon", "upstream_rate_bps"): ("1.2e9", {}),
    ("pon", "split_ratio"): ("32", {}),
    ("pon", "span_km"): ("10", {}),
    ("pon", "fiber_delay_us_per_km"): ("6", {}),
    ("pon", "dba_cycle_us"): ("250", {}),
    ("pon", "wireless_hop_us"): ("60", {}),
    ("pon", "ai_inference_us"): ("20", {}),
    ("pon", "packet_bytes"): ("256", {}),
    ("pon", "background_packet_bytes"): ("1500", {}),
    ("traffic.control", "shape"): ("0.2", {}),
    ("traffic.control", "scale_us"): ("800", {}),
    ("traffic.control", "location_us"): ("10", {}),
    ("traffic.haptic", "shape"): ("0.2", {}),
    ("traffic.haptic", "scale_us"): ("800", {}),
    ("traffic.haptic", "location_us"): ("10", {}),
    ("grid", "loads"): ("0.3", {}),
    ("grid", "spans_km"): ("25", {}),
    ("grid", "seeds"): ("2", {}),
    ("grid", "n_loops"): ("150", {}),
    ("grid", "deadline_us"): ("800", {}),
    ("glad", "accuracy_target"): ("0.9", {}),
    ("glad", "window"): ("100", {}),
    ("glad", "epsilon"): ("0.04", {}),
    ("glad", "onboarding_alpha"): ("0.01", {}),
    ("glad", "alpha_grid"): ("0.1, 0.5", {}),
    ("glad", "kind_pool_size"): ("2", {}),
    ("glad", "total_machines"): ("3", {}),
    ("glad", "local_ais"): ("3", {}),
    ("glad", "profiling_samples"): ("600", {}),
    # Above profiling_samples: GladParams rejects it at load.
    ("glad", "min_updates_for_upload"): ("501", {}),
    ("glad", "match_threshold"): ("0.6", POOL4),
    ("glad", "quant_bands"): ("5", POOL4),
    ("glad", "texture_freq_max_hz"): ("1000", POOL10),
    ("glad", "add_every"): ("50", {}),
    ("glad", "additions"): ("2", {}),
    ("glad", "machines_grid"): ("1, 3", {}),
}

# Keys that parse and hash into the provenance but change no table, each
# waiting to be wired or deleted (ROADMAP item 10).
INERT = {
    ("pon", "span_km"),                 # the latency sweep takes its spans from the grid
    ("traffic.haptic", "shape"),        # nothing reads ScenarioConfig.haptic_traffic
    ("traffic.haptic", "scale_us"),
    ("traffic.haptic", "location_us"),
    ("glad", "local_ais"),              # only GladParams validates it
}


def _scenario_text(*layers) -> str:
    sections: dict[str, dict[str, str]] = {}
    for layer in layers:
        for section, keys in layer.items():
            sections.setdefault(section, {}).update(keys)
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in sections.items())


def test_every_key_changes_a_table_or_is_rejected(tmp_path):
    schema_keys = {(section, key) for section, keys in config._SCHEMA.items() for key in keys}
    assert set(PERTURBATIONS) == schema_keys

    outcomes: dict[str, object] = {}

    def tables(text):
        if text not in outcomes:
            path = tmp_path / f"scenario{len(outcomes)}.cfg"
            path.write_text(text)
            try:
                scenario = config.load_scenario(path)
                outcomes[text] = (run_latency_sweep(scenario).tables,
                                  run_onboarding_study(scenario).tables)
            except GladsimError as exc:
                outcomes[text] = exc
        return outcomes[text]

    inert = set()
    for (section, key), (value, base) in PERTURBATIONS.items():
        before = tables(_scenario_text(TINY, base))
        assert not isinstance(before, GladsimError), before
        after = tables(_scenario_text(TINY, base, {section: {key: value}}))
        if after == before:
            inert.add((section, key))

    assert sorted(inert - INERT) == [], "keys that change nothing"
    assert sorted(INERT - inert) == [], "listed as inert but now change a table"
