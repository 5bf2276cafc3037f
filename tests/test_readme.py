"""README stays in step with the code it documents.

The byte checks of the outputs run README's example config, so a README
that drifted from the config parser, the task list or the command line
would change what they check without any test failing.
"""

import argparse
import json
import re
from pathlib import Path

from fluxrabi.cli import build_parser
from fluxrabi.config import TASK_NAMES, parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def test_example_config_parses():
    block = re.search(r"```json\n(.*?)```", README, re.S).group(1)
    assert parse_config(json.loads(block)).tasks


def test_task_list_matches_config():
    listed = re.search(r"^Tasks: (.*?)\.\s", README, re.S | re.M).group(1)
    assert tuple(re.findall(r"`([a-z-]+)`", listed)) == TASK_NAMES


def test_run_synopsis_flags_match_parser():
    synopsis = re.search(r"^fluxrabi run (.*)$", README, re.M).group(1)
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    flags = {flag for action in sub.choices["run"]._actions
             for flag in action.option_strings
             if flag.startswith("--") and flag != "--help"}
    assert set(re.findall(r"--[a-z-]+", synopsis)) == flags
