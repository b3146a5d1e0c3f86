"""Property-based tests of the span-tree invariants.

A random *program* — a sequence of push/pop/leaf operations — describes
a tree of nested calls through two wrapped boundaries, and the rows a
:class:`SpanRecorder` keeps of it must satisfy:

* parent wall intervals contain their children's;
* the tree (each row's name, parent index and size) is deterministic across
  two identical seeded interpretations (timestamps differ, structure
  does not);
* head sampling never orphans a span: a retained child's parent is
  always retained (the keep/drop decision is made at the root and
  inherited);
* the JSONL exporter round-trips byte-identically.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.obs.trace import SpanRecorder, load_spans, write_spans

# A program is a list of ops: "push" opens a nested call, "pop" closes
# the innermost open one, "leaf" makes one call that nests nothing.
programs = st.lists(
    st.sampled_from(["push", "pop", "leaf"]), min_size=1, max_size=40
)


class Work:
    def outer(self, *calls):
        for call in calls:
            call()
        return len(calls)

    def leaf(self):
        return 0


def call_tree(program):
    """The calls a program describes: a list of nodes, each a list of
    child nodes (a push) or None (a leaf)."""
    top = []
    open_nodes = [top]
    for op in program:
        if op == "push":
            node = []
            open_nodes[-1].append(node)
            open_nodes.append(node)
        elif op == "pop" and len(open_nodes) > 1:
            open_nodes.pop()
        elif op == "leaf":
            open_nodes[-1].append(None)
    return top


def run_program(program, seed=0, sample=1.0):
    """Make a program's calls through a freshly wrapped :class:`Work`."""
    rec, work = SpanRecorder(sample=sample, seed=seed), Work()
    rec.wrap(work, "Work.outer", "ret")
    rec.wrap(work, "Work.leaf")

    def call(node):
        if node is None:
            work.leaf()
        else:
            work.outer(*[lambda child=child: call(child) for child in node])

    for node in call_tree(program):
        call(node)
    return rec


def tree_sizes(rows):
    """Spans per root tree, in order."""
    sizes = []
    for row in rows:
        if row["parent"] == -1:
            sizes.append(0)
        sizes[-1] += 1
    return sizes


class TestSpanTreeInvariants:
    @given(program=programs)
    @settings(max_examples=60, deadline=None)
    def test_parent_interval_contains_child(self, program):
        rows = run_program(program).rows()
        for row in rows:
            if row["parent"] < 0:
                continue
            parent = rows[row["parent"]]
            assert parent["start"] <= row["start"]
            assert row["end"] <= parent["end"]

    @given(program=programs, seed=st.integers(min_value=0, max_value=999))
    @settings(max_examples=60, deadline=None)
    def test_ids_deterministic_across_identical_runs(self, program, seed):
        def identity(rec):
            return [(r["parent"], r["name"], r["size"]) for r in rec.rows()]

        assert identity(run_program(program, seed=seed, sample=0.5)) == identity(
            run_program(program, seed=seed, sample=0.5)
        )

    @given(
        program=programs,
        seed=st.integers(min_value=0, max_value=999),
        sample=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_sampling_never_orphans_a_child(self, program, seed, sample):
        rows = run_program(program, seed=seed, sample=sample).rows()
        full = run_program(program).rows()
        for i, row in enumerate(rows):
            assert -1 <= row["parent"] < i
        # Whole trees only: the kept trees' sizes are a subsequence of
        # the unsampled run's.
        rest = iter(tree_sizes(full))
        assert all(size in rest for size in tree_sizes(rows))

    @given(program=programs)
    @settings(max_examples=30, deadline=None)
    def test_exporter_round_trips_byte_identically(self, program, tmp_path_factory):
        rows = run_program(program).rows()
        base = tmp_path_factory.mktemp("spans")
        first, second = base / "a.jsonl", base / "b.jsonl"
        write_spans(str(first), rows, {"seed": 0})
        write_spans(str(second), load_spans(str(first)), {"seed": 0})
        assert first.read_bytes() == second.read_bytes()
