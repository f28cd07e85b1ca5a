"""Shared pytest fixtures for the S-SYNC reproduction test suite."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.library import ghz_circuit, qft_circuit, random_circuit
from repro.core.compiler import SSyncCompiler
from repro.hardware.device import QCCDDevice
from repro.hardware.topologies import grid_device, linear_device, star_device


@pytest.fixture
def linear_2x6() -> QCCDDevice:
    """Two traps of capacity 6 in a line — the smallest interesting device."""
    return linear_device(2, 6, name="L-2")


@pytest.fixture
def linear_3x5() -> QCCDDevice:
    """Three traps of capacity 5 in a line."""
    return linear_device(3, 5, name="L-3")


@pytest.fixture
def grid_2x2() -> QCCDDevice:
    """A 2x2 grid with capacity 6 per trap."""
    return grid_device(2, 2, 6)


@pytest.fixture
def star_4() -> QCCDDevice:
    """A 4-trap star device with capacity 6 per trap."""
    return star_device(4, 6)


@pytest.fixture
def bell_circuit() -> QuantumCircuit:
    """A 2-qubit Bell-pair circuit."""
    circuit = QuantumCircuit(2, name="bell")
    circuit.h(0)
    circuit.cx(0, 1)
    return circuit


@pytest.fixture
def ghz_8() -> QuantumCircuit:
    """An 8-qubit GHZ ladder circuit."""
    return ghz_circuit(8)


@pytest.fixture
def qft_8() -> QuantumCircuit:
    """An 8-qubit QFT circuit."""
    return qft_circuit(8)


@pytest.fixture
def random_10() -> QuantumCircuit:
    """A seeded random 10-qubit circuit with 40 two-qubit gates."""
    return random_circuit(10, 40, seed=11)


@pytest.fixture
def compiler_linear(linear_2x6: QCCDDevice) -> SSyncCompiler:
    """An S-SYNC compiler bound to the small linear device."""
    return SSyncCompiler(linear_2x6)


#: Seconds the session-end check waits for stray threads to finish.
THREAD_GRACE_S = 5.0


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    """Fail the run when a test leaves a non-daemon thread running.

    Such a thread outlives the summary line and then holds the
    interpreter open, because interpreter exit joins every non-daemon
    thread.  The tests themselves pass, so nothing else would notice.
    Each thread gets a share of a short grace join first.
    """
    deadline = time.monotonic() + THREAD_GRACE_S
    lingering = []
    for thread in threading.enumerate():
        if thread is threading.main_thread() or thread.daemon:
            continue
        thread.join(max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            lingering.append(thread.name)
    if lingering:
        message = "non-daemon threads still alive at session end: " + ", ".join(lingering)
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_line(message, red=True)
        else:
            print(message, file=sys.stderr)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
