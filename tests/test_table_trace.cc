/**
 * @file
 * Tests for the table printer and the EvolutionTrace accessors.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/table.hh"
#include "neat/trace.hh"

using namespace genesys;

TEST(TableTest, AlignsColumns)
{
    Table t("demo");
    t.setHeader({"a", "long-header", "c"});
    t.addRow({"1", "2", "3"});
    t.addRow({"wide-cell", "x", "y"});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("long-header"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("---"), std::string::npos);
    // Each printed line of the body is equally padded: find rows.
    EXPECT_NE(out.find("wide-cell"), std::string::npos);
}

TEST(TableTest, Formatters)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::integer(42), "42");
    EXPECT_EQ(Table::sci(12345.0, 2), "1.23e+04");
}

TEST(TableTest, RowsWithoutHeader)
{
    Table t;
    t.addRow({"only", "rows"});
    std::ostringstream oss;
    t.print(oss);
    EXPECT_EQ(oss.str(), "only  rows  \n");
}

namespace
{

neat::EvolutionTrace
demoTrace()
{
    neat::EvolutionTrace t;
    t.generation = 3;
    auto child = [](int key, int p1, int p2, bool elite) {
        neat::ChildRecord c;
        c.childKey = key;
        c.parent1Key = p1;
        c.parent2Key = p2;
        c.isElite = elite;
        c.parent1Genes = 10;
        c.parent2Genes = 12;
        c.childNodeGenes = 3;
        c.childConnGenes = 9;
        c.ops.crossoverOps = 8;
        c.ops.perturbOps = 12;
        c.ops.addOps = elite ? 0 : 1;
        return c;
    };
    t.children.push_back(child(100, 1, 2, false));
    t.children.push_back(child(101, 1, 2, false));
    t.children.push_back(child(102, 1, 3, false));
    t.children.push_back(child(103, 4, 4, false)); // self-crossover
    t.children.push_back(child(1, 1, 1, true));    // elite
    return t;
}

} // namespace

TEST(TraceTest, TotalsAndBreakdown)
{
    const auto t = demoTrace();
    EXPECT_EQ(t.totalOps(), 5 * (8 + 12) + 4);
    const auto ops = t.opTotals();
    EXPECT_EQ(ops.crossoverOps, 40);
    EXPECT_EQ(ops.addOps, 4);
}

TEST(TraceTest, ParentUseCountsSkipElites)
{
    const auto t = demoTrace();
    const auto counts = t.parentUseCounts();
    EXPECT_EQ(counts.at(1), 3); // children 100, 101, 102
    EXPECT_EQ(counts.at(2), 2);
    EXPECT_EQ(counts.at(3), 1);
    EXPECT_EQ(counts.at(4), 1); // self-crossover counted once
    EXPECT_EQ(t.maxParentReuse(), 3);
    EXPECT_EQ(t.parentReuse(2), 2);
    EXPECT_EQ(t.parentReuse(999), 0);
}

TEST(TraceTest, GeneStreamTotals)
{
    const auto t = demoTrace();
    // Elites stream nothing; 4 children x (10 + 12).
    EXPECT_EQ(t.totalParentGenesStreamed(), 4 * 22);
    // All 5 children (incl. elite) have 12 genes.
    EXPECT_EQ(t.totalChildGenes(), 5 * 12);
}

TEST(TraceTest, EmptyTrace)
{
    neat::EvolutionTrace t;
    EXPECT_EQ(t.totalOps(), 0);
    EXPECT_EQ(t.maxParentReuse(), 0);
    EXPECT_TRUE(t.parentUseCounts().empty());
}
