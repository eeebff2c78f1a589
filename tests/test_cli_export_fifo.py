"""CLI, CSV export, and the FCFS extension scheduler."""

from __future__ import annotations

import csv
import io

import pytest

from repro.errors import ExperimentError
from repro.experiments.export import (
    CSV_COLUMNS,
    comparisons_to_csv,
    comparisons_to_rows,
    write_csv,
)
from repro.api import Engine, Scenario
from repro.cli import main
from repro.sched.fifo import FifoScheduler
from repro.sched.random_sched import RandomScheduler
from repro.sim.config import MachineConfig
from repro.sim.simulator import MPSoCSimulator


class TestFifoScheduler:
    def test_completes_and_validates(self, small_machine, small_epg):
        result = MPSoCSimulator(small_machine).run(small_epg, FifoScheduler())
        result.validate_against(small_epg)
        assert result.scheduler_name == "FCFS"

    def test_deterministic(self, small_machine, small_epg):
        sim = MPSoCSimulator(small_machine)
        a = sim.run(small_epg, FifoScheduler())
        b = sim.run(small_epg, FifoScheduler())
        assert a.schedule == b.schedule

    def test_initial_dispatch_in_pid_order(self, small_machine, small_epg):
        result = MPSoCSimulator(small_machine).run(small_epg, FifoScheduler())
        first_per_core = [core.executed_pids[0] for core in result.cores]
        independents = sorted(p.pid for p in small_epg.independent_processes())
        assert first_per_core == independents[: small_machine.num_cores]


class TestCsvExport:
    @pytest.fixture(scope="class")
    def comparison(self):
        return Engine().compare(
            Scenario().workload("MxM").machine("cores-4").scale(0.25)
        )

    def test_rows_cover_all_schedulers(self, comparison):
        rows = comparisons_to_rows([comparison])
        assert {row["scheduler"] for row in rows} == {"RS", "RRS", "LS", "LSM"}
        for row in rows:
            assert set(row) == set(CSV_COLUMNS)

    def test_csv_parses_back(self, comparison):
        text = comparisons_to_csv([comparison])
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 4
        assert parsed[0]["workload"] == "MxM"
        assert [row["scheduler"] for row in parsed] == ["RS", "RRS", "LS", "LSM"]
        assert float(parsed[0]["seconds"]) > 0

    def test_write_csv(self, comparison, tmp_path):
        path = write_csv([comparison], tmp_path / "out.csv")
        assert path.exists()
        assert "scheduler" in path.read_text()

    def test_empty_export_rejected(self):
        with pytest.raises(ExperimentError):
            comparisons_to_csv([])


class TestCli:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out

    def test_figure2(self, capsys):
        assert main(["figure2"]) == 0
        assert "Figure 2(a)" in capsys.readouterr().out

    def test_figure7_small_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "f7.csv"
        code = main(
            [
                "figure7",
                "--scale", "0.25",
                "--max-tasks", "1",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        assert "Figure 7" in capsys.readouterr().out
        assert csv_path.exists()

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["nope"])
