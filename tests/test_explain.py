"""EXPLAIN output tests (and plan-shape checks through the SQL surface)."""

import pytest


@pytest.fixture
def shop(run):
    run("CREATE TABLE goods (id INT NOT NULL, cat INT, price FLOAT, "
        "PRIMARY KEY (id))")
    run("CREATE INDEX ix_cat ON goods (cat)")
    run("INSERT INTO goods VALUES (1, 10, 5.0), (2, 10, 7.5), "
        "(3, 20, 2.0)")


def explain(run, sql):
    return [row[0] for row in run(f"EXPLAIN {sql}")]


class TestExplain:
    def test_seq_scan(self, run, shop):
        lines = explain(run, "SELECT * FROM goods")
        assert any("SeqScan(goods" in line for line in lines)

    def test_pk_seek(self, run, shop):
        lines = explain(run, "SELECT * FROM goods WHERE id = 2")
        assert any("IndexSeek(goods index=__pk_goods" in line
                   for line in lines)

    def test_secondary_seek_with_range(self, run, shop):
        lines = explain(run,
                        "SELECT * FROM goods WHERE cat = 10 AND id < 5")
        assert any("IndexSeek" in line for line in lines)

    def test_hash_join_visible(self, run, shop):
        run("CREATE TABLE cats (cat INT, label VARCHAR(8))")
        lines = explain(run,
                        "SELECT label FROM goods, cats "
                        "WHERE goods.cat = cats.cat")
        assert any("HashJoin(inner keys=1" in line for line in lines)

    def test_aggregate_sort_limit(self, run, shop):
        text = "\n".join(explain(
            run, "SELECT TOP 2 cat, sum(price) AS total "
                 "FROM goods GROUP BY cat ORDER BY total DESC"))
        assert "HashAggregate(groups=1 aggs=1)" in text
        assert "TopNHeapSort(n=2 keys=1)" in text
        # Without an ORDER BY a TOP is a Limit, without a TOP an ORDER
        # BY a Sort.
        assert "Limit(2)" in "\n".join(explain(
            run, "SELECT TOP 2 cat FROM goods"))
        assert "Sort(1 keys)" in "\n".join(explain(
            run, "SELECT cat FROM goods ORDER BY price DESC"))

    def test_contradiction_shows_empty_scan(self, run, shop):
        lines = explain(run, "SELECT * FROM goods WHERE 0 = 1")
        assert any("EmptyScan" in line for line in lines)

    def test_union_shows_concat_distinct(self, run, shop):
        lines = explain(run,
                        "SELECT id FROM goods UNION SELECT cat FROM goods")
        text = "\n".join(lines)
        assert "Concat(2 inputs)" in text
        assert "Distinct" in text

    def test_indentation_reflects_tree(self, run, shop):
        lines = explain(run, "SELECT id FROM goods WHERE price > 1")
        # Root at depth 0, children indented.
        assert not lines[0].startswith(" ")
        assert any(line.startswith("  ") for line in lines[1:])

    def test_explain_does_not_execute(self, run, shop):
        run("EXPLAIN SELECT * FROM goods")
        # The table is unchanged and no side effects happened; a plain
        # count still sees 3 rows.
        assert run("SELECT count(*) FROM goods") == [(3,)]

    def test_work_amplification_annotated(self, engine, session):
        engine.meter.costs.work_amplification = 50.0
        engine.execute("CREATE TABLE big (a INT)", session)
        result = engine.execute("EXPLAIN SELECT * FROM big", session)
        lines = [r[0] for r in result.fetch_all()]
        assert any("x50" in line for line in lines)
