"""Scaling bench timing: the warm-up before the timed repeats."""

import types

import pytest

from attngrad import bench


def scripted(monkeypatch, durations):
    """fn whose calls take the given seconds on a fake clock; returns
    fn and the list of results it has handed out."""
    clock = [0.0]
    monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    calls = []

    def fn():
        clock[0] += durations[len(calls)]
        calls.append(len(calls))
        return len(calls) - 1
    return fn, calls


def test_warm_up_stops_when_two_calls_agree(monkeypatch):
    # 50 -> 7 -> 10 -> 11: only 10 and 11 agree within 1.25x
    fn, calls = scripted(monkeypatch, [50.0, 7.0, 10.0, 11.0, 3.0, 5.0, 4.0])
    secs, result = bench._median_time(fn, 3)
    assert (secs, result, len(calls)) == (4.0, 6, 7)


def test_warm_up_is_capped(monkeypatch):
    # 1, 2, 1, 2, ...: no two agree, so the warm-up stops at 10 calls
    fn, calls = scripted(monkeypatch, [1.0, 2.0] * 5 + [0.5, 0.25])
    assert bench._median_time(fn, 2) == (pytest.approx(0.375), 11)
    assert len(calls) == 12
