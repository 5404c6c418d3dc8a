"""AttributionCollector: bucketing, rollups, payload validation."""

import copy

import pytest

from repro.instrument.codeimage import FrozenImage
from repro.layout.layouts import AddressMap
from repro.obsv import (
    ATTRIBUTION_SCHEMA_VERSION,
    AttributionCollector,
    validate_payload,
)

MODULES = ["repro.db.parser.parser", "repro.db.storage.btree", None]


def make_layout():
    image = FrozenImage(["parse", "search", "helper"], [64, 64, 64], MODULES)
    return image, AddressMap(image, range(3), 1.0, 1.0, 1.0, "ident")


def feed(collector, layout):
    """A tiny consistent event stream across all three functions."""
    f0, f1, f2 = layout.base_line  # entry line of each function
    collector.demand_miss(f0, from_mem=True)
    collector.demand_miss(f0 + 1, from_mem=False)
    collector.demand_miss(f1, from_mem=True)
    # function 1: two issued, one of each outcome bucket + one squash
    collector.issued(f1, "nl", cycle=10.0, arrival=20.0)
    collector.pref_hit(f1, "nl", cycle=25.0)
    collector.issued(f1 + 2, "cghc", cycle=12.0, arrival=30.0)
    collector.delayed_hit(f1 + 2, "cghc", stall=6.0, cycle=30.0)
    collector.squashed(f1, "nl")
    # function 2: a useless prefetch and an out-of-range request
    collector.issued(f2, "nl", cycle=14.0, arrival=24.0)
    collector.useless(f2, "nl", cycle=50.0)
    collector.out_of_range("nl")
    collector.cghc_access(f0, 0)
    collector.cghc_access(f1, 2)


def test_function_and_layer_rollups():
    image, layout = make_layout()
    collector = AttributionCollector(layout, image=image)
    feed(collector, layout)
    table = collector.function_table()
    assert table[0]["name"] == "parse"
    assert table[0]["layer"] == "parser"
    assert table[0]["demand_misses"] == 2
    assert table[0]["memory_fetches"] == 1
    assert table[1]["layer"] == "storage"
    assert table[1]["issued"] == 2
    assert table[1]["pref_hits"] == 1
    assert table[1]["delayed_hits"] == 1
    assert table[1]["squashed"] == 1
    assert table[2]["layer"] == "runtime"
    assert table[2]["useless"] == 1
    layers = collector.layer_table()
    assert layers["parser"]["demand_misses"] == 2
    assert layers["storage"]["cghc_misses"] == 1
    assert layers["parser"]["cghc_l1_hits"] == 1
    # sorted by demand misses: parser (2) before storage (1)
    assert list(layers)[0] == "parser"


def test_layer_table_breaks_demand_miss_ties_by_name():
    """Layers tied on demand misses come out in name order, whatever
    order their functions' outcomes were classified in."""
    image, layout = make_layout()
    orders = []
    for fids in ((0, 1), (1, 0)):
        collector = AttributionCollector(layout, image=image)
        for fid in fids:
            collector.demand_miss(layout.base_line[fid], from_mem=False)
        orders.append(list(collector.layer_table()))
        orders.append(list(collector.to_dict()["layers"]))
    assert orders == [["parser", "storage"]] * 4


def test_top_functions_stops_at_zero():
    image, layout = make_layout()
    collector = AttributionCollector(layout, image=image)
    feed(collector, layout)
    top = collector.top_functions(k=10, by="demand_misses")
    # function 2 has zero demand misses: excluded even though k allows it
    assert [entry["fid"] for entry in top] == [0, 1]
    by_useless = collector.top_functions(k=10, by="useless")
    assert [entry["fid"] for entry in by_useless] == [2]


def test_lateness_histogram_buckets_by_power_of_two():
    image, layout = make_layout()
    collector = AttributionCollector(layout, image=image)
    f1 = layout.base_line[1]
    for stall, bucket in ((0.5, 0), (1.0, 1), (3.0, 2), (900.0, 10)):
        collector.issued(f1, "cghc", 0.0, 1.0)
        collector.delayed_hit(f1, "cghc", stall, 1.0)
    assert collector.lateness_histogram() == {
        "cghc": {0: 1, 1: 1, 2: 1, 10: 1}
    }


def test_payload_validates_and_is_versioned():
    image, layout = make_layout()
    collector = AttributionCollector(layout, image=image, interval=100,
                                     lifecycle=16)
    feed(collector, layout)
    payload = collector.to_dict()
    assert payload["schema_version"] == ATTRIBUTION_SCHEMA_VERSION
    assert validate_payload(payload) is payload
    assert payload["out_of_range"] == {"nl": 1}
    assert payload["lifecycle"]["recorded"] == 3


@pytest.mark.parametrize("corrupt", [
    lambda p: p.update(schema_version=99),
    lambda p: p.pop("layers"),
    lambda p: p["functions"]["1"].update(issued=5),  # breaks accounting
    lambda p: p["functions"]["0"].update(demand_misses=-1),
    lambda p: p["layers"]["parser"].update(demand_misses=7),  # rollup
    lambda p: p["lateness"]["cghc"].update({"3": 10}),  # histogram total
])
def test_validate_rejects_corrupted_payloads(corrupt):
    image, layout = make_layout()
    collector = AttributionCollector(layout, image=image)
    feed(collector, layout)
    payload = copy.deepcopy(collector.to_dict())
    corrupt(payload)
    with pytest.raises(ValueError):
        validate_payload(payload)


def test_validate_rejects_unordered_interval_samples():
    image, layout = make_layout()
    collector = AttributionCollector(layout, image=image)
    feed(collector, layout)
    payload = collector.to_dict()
    sample = {"instructions": 100, "cycles": 10.0, "ipc": 1.0,
              "miss_rate": 0.0, "prefetch_usefulness": 0.0,
              "partial": False}
    payload["intervals"] = [dict(sample), dict(sample, instructions=50)]
    with pytest.raises(ValueError):
        validate_payload(payload)


def test_collector_without_image_reports_anonymous_functions():
    _image, layout = make_layout()
    collector = AttributionCollector(layout)
    feed(collector, layout)
    table = collector.function_table()
    assert table[0]["name"] is None
    assert table[0]["layer"] == "runtime"  # no module metadata
    assert validate_payload(collector.to_dict())
