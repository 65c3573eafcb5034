"""``scripts/make_fixtures.py`` regenerates the committed ``fixtures/`` byte
for byte, and both configurations it writes build a valid run."""

import importlib.util

from fleetcharge.ingest import load_config
from fleetcharge.scheduler import Policy

from conftest import FIXTURES, ROOT

_spec = importlib.util.spec_from_file_location(
    "make_fixtures", ROOT / "scripts" / "make_fixtures.py")
make_fixtures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_fixtures)

FILES = ("sessions_week.csv", "prices_week.csv", "config_week.cfg",
         "sessions_overnight.csv", "prices_overnight.csv", "config_overnight.cfg")


def test_regenerates_the_committed_fixtures(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(make_fixtures, "FIXTURES", tmp_path)
    make_fixtures.main()
    assert str(tmp_path) in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FILES)
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
    for name in ("config_week.cfg", "config_overnight.cfg"):
        cfg = load_config(tmp_path / name)
        cfg.sim_config(Policy("proposed", weights=cfg.weights))
