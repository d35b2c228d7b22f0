"""Unit tests for Algorithm 1's predicate-extraction internals."""


from repro.core.partial_views import (
    _aliases_of,
    _bounds_on,
    _column_equivalence_classes,
    _merge,
    _string_constraint,
)
from repro.engine.expressions import BooleanOp, Comparison, IsIn, col, lit
from repro.engine.types import TIMESTAMP

STATION = "H.window_station"


def allowed_stations(pred) -> set | None:
    """Station values Algorithm 1 derives from one predicate."""
    return _merge(
        _bounds_on(pred, {STATION}).points(), _string_constraint(pred, STATION)
    )


class TestStringConstraint:
    def test_equality(self):
        pred = Comparison("=", col(STATION), lit("FIAM"))
        assert allowed_stations(pred) == {"FIAM"}

    def test_flipped_equality(self):
        pred = Comparison("=", lit("FIAM"), col(STATION))
        assert allowed_stations(pred) == {"FIAM"}

    def test_in_list(self):
        pred = IsIn(col(STATION), ["A", "B"])
        assert _string_constraint(pred, STATION) == {"A", "B"}
        assert allowed_stations(pred) == {"A", "B"}

    def test_other_column_ignored(self):
        pred = Comparison("=", col("H.window_channel"), lit("HHZ"))
        assert allowed_stations(pred) is None

    def test_range_predicate_ignored(self):
        pred = Comparison(">", col(STATION), lit("A"))
        assert allowed_stations(pred) is None

    def test_disagreeing_equalities_allow_nothing(self):
        pred = BooleanOp(
            "AND",
            [
                Comparison("=", col(STATION), lit("A")),
                Comparison("=", col("F.station"), lit("B")),
            ],
        )
        assert _bounds_on(pred, {STATION, "F.station"}).points() == set()


class TestTimeConstraint:
    """Closed integer ranges of ``H.window_start_ts`` (Algorithm 1, step 3)."""

    COL = "H.window_start_ts"

    def int_range(self, pred):
        return _bounds_on(pred, {self.COL}).int_range()

    def test_greater_equal(self):
        pred = Comparison(">=", col(self.COL), lit(1000, TIMESTAMP))
        assert self.int_range(pred) == (1000, None)

    def test_strictly_greater_shifts(self):
        pred = Comparison(">", col(self.COL), lit(1000, TIMESTAMP))
        assert self.int_range(pred) == (1001, None)

    def test_less_than(self):
        pred = Comparison("<", col(self.COL), lit(2000, TIMESTAMP))
        assert self.int_range(pred) == (None, 1999)

    def test_less_equal_shifts(self):
        pred = Comparison("<=", col(self.COL), lit(2000, TIMESTAMP))
        assert self.int_range(pred) == (None, 2000)

    def test_equality_is_point_range(self):
        pred = Comparison("=", col(self.COL), lit(1500, TIMESTAMP))
        assert self.int_range(pred) == (1500, 1500)

    def test_flipped_orientation(self):
        pred = Comparison("<=", lit(1000, TIMESTAMP), col(self.COL))
        assert self.int_range(pred) == (1000, None)

    def test_unrelated_column(self):
        pred = Comparison(">=", col("D.sample_time"), lit(1, TIMESTAMP))
        assert self.int_range(pred) == (None, None)

    def test_fractional_edges_round_inward(self):
        # ``t < 2000.5`` admits t = 2000; truncating the literal lost it.
        assert self.int_range(Comparison("<", col(self.COL), lit(2000.5))) == (
            None,
            2000,
        )
        assert self.int_range(Comparison(">", col(self.COL), lit(999.5))) == (
            1000,
            None,
        )

    def test_aliases_pool_their_bounds(self):
        pred = BooleanOp(
            "AND",
            [
                Comparison(">=", col(self.COL), lit(1000)),
                Comparison("<", col("S.start_time"), lit(2000)),
            ],
        )
        assert _bounds_on(pred, {self.COL, "S.start_time"}).int_range() == (
            1000,
            1999,
        )


class TestEquivalenceClasses:
    def test_direct_equality(self):
        preds = [Comparison("=", col("H.window_station"), col("F.station"))]
        classes = _column_equivalence_classes(preds)
        assert _aliases_of("H.window_station", classes) == {
            "H.window_station",
            "F.station",
        }

    def test_transitive_merge(self):
        preds = [
            Comparison("=", col("A.x"), col("B.y")),
            Comparison("=", col("B.y"), col("C.z")),
        ]
        classes = _column_equivalence_classes(preds)
        assert _aliases_of("A.x", classes) == {"A.x", "B.y", "C.z"}

    def test_literal_comparisons_ignored(self):
        preds = [Comparison("=", col("A.x"), lit(5))]
        assert _column_equivalence_classes(preds) == []

    def test_unrelated_column_alias_is_self(self):
        assert _aliases_of("Q.q", []) == {"Q.q"}


class TestMerge:
    def test_both_none(self):
        assert _merge(None, None) is None

    def test_one_side(self):
        assert _merge(None, {"A"}) == {"A"}
        assert _merge({"A"}, None) == {"A"}

    def test_intersection(self):
        assert _merge({"A", "B"}, {"B", "C"}) == {"B"}
