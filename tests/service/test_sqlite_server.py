"""A campaign server over the sqlite store backend.

The server opens its store on one thread and simulates (and so writes
results) on another; the sqlite backend must accept writes from any
thread instead of quarantining every task with sqlite's
"objects created in a thread can only be used in that same thread".
"""

from repro.campaign.session import Session
from repro.campaign.spec import RunnerSettings
from repro.experiments.__main__ import main
from repro.experiments.figures import figure_spec
from repro.service.server import ServerThread
from repro.store import SqliteStore

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=2,
    benchmarks=("gzip",),
)

FIDELITY = [
    "--instructions", "3000",
    "--warmup", "1000",
    "--maps", "2",
    "--benchmarks", "gzip",
    "--seed", str(SETTINGS.seed),
]


def test_sqlite_backed_server_serves_a_submit(tmp_path, capsys):
    store = SqliteStore(tmp_path)
    try:
        with Session(SETTINGS, store=store) as session, ServerThread(
            session
        ) as server:
            code = main(["submit", "fig8", "--url", server.url, "--quiet", *FIDELITY])
    finally:
        store.close()
    err = capsys.readouterr().err
    assert code == 0, err
    assert "[submit] done: failures=0 simulations executed=6" in err
    # Every result the server simulated is durable in the database.
    reopened = SqliteStore(tmp_path)
    assert all(key in reopened for key in figure_spec("fig8", SETTINGS).task_keys())
    reopened.close()
