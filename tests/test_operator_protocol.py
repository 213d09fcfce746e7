"""Guard: physical operators speak one protocol, column batches.

Every operator implements ``execute_batches`` and nothing else; the row
iterator ``execute`` exists once, on :class:`PhysicalOp`, as the
flattening of those batches.  These checks keep a second (row) protocol
from growing back.
"""

from pathlib import Path

import repro.engine
from repro.engine import goj_op, wcoj, yannakakis  # noqa: F401  (register subclasses)
from repro.engine.iterators import PhysicalOp, TracedOp

ENGINE_SRC = Path(repro.engine.__file__).resolve().parent


def _operators():
    found, stack = [], [PhysicalOp]
    while stack:
        for sub in stack.pop().__subclasses__():
            found.append(sub)
            stack.append(sub)
    return found


def test_the_walk_sees_every_operator():
    names = {cls.__name__ for cls in _operators()}
    assert {
        "SeqScan",
        "Filter",
        "ProjectOp",
        "IndexNestedLoopJoin",
        "HashJoin",
        "GeneralizedOuterJoinOp",
        "LeapfrogTriejoinOp",
        "YannakakisOp",
        "TracedOp",
    } <= names


def test_every_operator_emits_batches_and_none_overrides_execute():
    for cls in _operators():
        assert cls.execute_batches is not PhysicalOp.execute_batches, cls.__name__
        assert cls.execute is PhysicalOp.execute, cls.__name__
    assert "execute_batches" in vars(TracedOp)


def test_engine_source_names_no_row_protocol():
    for path in sorted(ENGINE_SRC.rglob("*.py")):
        text = path.read_text()
        for name in ("_execute_rows", "batch_native"):
            assert name not in text, f"{path.name} mentions {name}"
