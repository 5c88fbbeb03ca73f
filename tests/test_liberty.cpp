#include <gtest/gtest.h>

#include "liberty/function.hpp"
#include "liberty/library.hpp"
#include "liberty/nldm.hpp"
#include "util/error.hpp"

namespace {

using namespace cryo::liberty;

NldmTable small_table() {
  // f(x, y) = x + 10*y on the grid {0,1} x {0,2}.
  return NldmTable{{0.0, 1.0}, {0.0, 2.0}, {0.0, 20.0, 1.0, 21.0}};
}

TEST(Nldm, ExactGridPoints) {
  const auto t = small_table();
  EXPECT_DOUBLE_EQ(t.lookup(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(t.lookup(1.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(t.lookup(0.0, 2.0), 20.0);
  EXPECT_DOUBLE_EQ(t.lookup(1.0, 2.0), 21.0);
}

TEST(Nldm, BilinearInterior) {
  const auto t = small_table();
  EXPECT_NEAR(t.lookup(0.5, 1.0), 10.5, 1e-12);
}

TEST(Nldm, LinearExtrapolationOutside) {
  const auto t = small_table();
  // Along x: slope 1 -> at x=2, y=0: 2.
  EXPECT_NEAR(t.lookup(2.0, 0.0), 2.0, 1e-12);
  // Along y: slope 10 -> at y=4, x=0: 40.
  EXPECT_NEAR(t.lookup(0.0, 4.0), 40.0, 1e-12);
  // Below the grid.
  EXPECT_NEAR(t.lookup(-1.0, 0.0), -1.0, 1e-12);
}

TEST(Nldm, ScalarTable) {
  const auto t = NldmTable::scalar(7.0);
  EXPECT_DOUBLE_EQ(t.lookup(123.0, 456.0), 7.0);
}

TEST(Nldm, RejectsMalformed) {
  EXPECT_THROW(NldmTable({1.0, 0.0}, {0.0}, {1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(NldmTable({0.0}, {0.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Function, BasicOperators) {
  const std::vector<std::string> ab{"A", "B"};
  EXPECT_EQ(function_truth_table("A&B", ab), 0x8u);
  EXPECT_EQ(function_truth_table("A|B", ab), 0xEu);
  EXPECT_EQ(function_truth_table("A^B", ab), 0x6u);
  EXPECT_EQ(function_truth_table("!(A&B)", ab), 0x7u);
  EXPECT_EQ(function_truth_table("A'", ab), 0x5u);
  EXPECT_EQ(function_truth_table("A B", ab), 0x8u);  // juxtaposition = AND
  EXPECT_EQ(function_truth_table("1", ab), 0xFu);
  EXPECT_EQ(function_truth_table("0", ab), 0x0u);
}

TEST(Function, PrecedenceAndParens) {
  const std::vector<std::string> abc{"A", "B", "C"};
  // AND binds tighter than OR.
  EXPECT_EQ(function_truth_table("A|B&C", abc),
            function_truth_table("A|(B&C)", abc));
  EXPECT_NE(function_truth_table("A|B&C", abc),
            function_truth_table("(A|B)&C", abc));
}

TEST(Function, FiveAndSixInputTablesMatchBruteForce) {
  // The widest tables: 32 and 64 minterms, where a mask built with a
  // 32-bit shift would overflow. Each case is checked bit by bit against
  // the expression evaluated directly on the minterm's input values.
  struct Case {
    std::string expression;
    std::vector<std::string> inputs;
    bool (*eval)(const bool* v);
  };
  const std::vector<std::string> five{"A1", "A2", "B1", "B2", "C"};
  const std::vector<std::string> six{"A1", "A2", "A3", "B1", "B2", "B3"};
  const std::vector<Case> cases = {
      {"!((A1&A2)|(B1&B2)|C)", five,
       [](const bool* v) { return !((v[0] && v[1]) || (v[2] && v[3]) || v[4]); }},
      {"A1^A2^B1^B2^C", five,
       [](const bool* v) { return (v[0] ^ v[1] ^ v[2] ^ v[3] ^ v[4]) != 0; }},
      {"1", five, [](const bool*) { return true; }},
      {"C'", five, [](const bool* v) { return !v[4]; }},
      {"!((A1|A2|A3)&(B1|B2|B3))", six,
       [](const bool* v) {
         return !((v[0] || v[1] || v[2]) && (v[3] || v[4] || v[5]));
       }},
      {"A1 A2 A3 B1 B2 B3", six,
       [](const bool* v) {
         return v[0] && v[1] && v[2] && v[3] && v[4] && v[5];
       }},
      {"1", six, [](const bool*) { return true; }},
      {"!B3", six, [](const bool* v) { return !v[5]; }},
  };
  for (const Case& c : cases) {
    const std::uint64_t table = function_truth_table(c.expression, c.inputs);
    const unsigned minterms = 1u << c.inputs.size();
    for (unsigned m = 0; m < 64; ++m) {
      bool values[6] = {};
      for (std::size_t j = 0; j < c.inputs.size(); ++j) {
        values[j] = ((m >> j) & 1u) != 0;
      }
      const bool expected = m < minterms && c.eval(values);
      EXPECT_EQ(((table >> m) & 1u) != 0, expected)
          << c.expression << " over " << c.inputs.size()
          << " inputs, minterm " << m;
    }
  }
}

TEST(Function, Errors) {
  EXPECT_THROW(function_truth_table("A&", {"A"}), std::runtime_error);
  EXPECT_THROW(function_truth_table("Z", {"A"}), std::runtime_error);
  EXPECT_THROW(function_truth_table("(A", {"A"}), std::runtime_error);
}

TEST(Function, InputsDiscovery) {
  const auto names = function_inputs("(A1&A2)|!B1");
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "A1");
  EXPECT_EQ(names[2], "B1");
}

Library sample_library() {
  Library lib;
  lib.name = "test_lib";
  lib.temperature_k = 10.0;
  lib.voltage = 0.7;

  Cell inv;
  inv.name = "INV_X1";
  inv.area = 0.06;
  inv.leakage_power = 1.5e-12;
  Pin a;
  a.name = "A";
  a.capacitance = 0.3e-15;
  Pin y;
  y.name = "Y";
  y.is_output = true;
  y.function = "!A";
  inv.pins = {a, y};
  TimingArc arc;
  arc.related_pin = "A";
  arc.sense = ArcSense::kNegative;
  arc.cell_rise = NldmTable{{1e-12, 2e-12}, {1e-16, 2e-16},
                            {3e-12, 4e-12, 5e-12, 6e-12}};
  arc.cell_fall = arc.cell_rise;
  arc.rise_transition = arc.cell_rise;
  arc.fall_transition = arc.cell_rise;
  inv.arcs.push_back(arc);
  PowerArc parc;
  parc.related_pin = "A";
  parc.rise_power = NldmTable{{1e-12, 2e-12}, {1e-16, 2e-16},
                              {1e-16, 2e-16, 3e-16, 4e-16}};
  parc.fall_power = parc.rise_power;
  inv.power_arcs.push_back(parc);
  lib.cells.push_back(inv);

  Cell dff;
  dff.name = "DFF_X1";
  dff.is_sequential = true;
  dff.next_state = "D";
  dff.clocked_on = "CK";
  dff.area = 0.3;
  Pin d;
  d.name = "D";
  d.capacitance = 0.2e-15;
  Pin ck;
  ck.name = "CK";
  ck.capacitance = 0.25e-15;
  Pin q;
  q.name = "Q";
  q.is_output = true;
  q.function = "IQ";
  dff.pins = {d, ck, q};
  lib.cells.push_back(dff);
  return lib;
}

TEST(Liberty, RoundTripPreservesEverything) {
  const Library lib = sample_library();
  const std::string text = to_liberty(lib);
  const Library parsed = parse_liberty(text);

  EXPECT_EQ(parsed.name, lib.name);
  EXPECT_NEAR(parsed.temperature_k, lib.temperature_k, 1e-9);
  EXPECT_NEAR(parsed.voltage, lib.voltage, 1e-9);
  ASSERT_EQ(parsed.cells.size(), lib.cells.size());

  const Cell* inv = parsed.find("INV_X1");
  ASSERT_NE(inv, nullptr);
  EXPECT_NEAR(inv->area, 0.06, 1e-9);
  EXPECT_NEAR(inv->leakage_power, 1.5e-12, 1e-18);
  ASSERT_EQ(inv->arcs.size(), 1u);
  EXPECT_EQ(inv->arcs[0].related_pin, "A");
  EXPECT_EQ(inv->arcs[0].sense, ArcSense::kNegative);
  // Table values survive the unit conversion round-trip.
  EXPECT_NEAR(inv->arcs[0].cell_rise.lookup(1e-12, 1e-16), 3e-12, 1e-17);
  EXPECT_NEAR(inv->arcs[0].cell_rise.lookup(2e-12, 2e-16), 6e-12, 1e-17);
  ASSERT_EQ(inv->power_arcs.size(), 1u);
  EXPECT_NEAR(inv->power_arcs[0].rise_power.lookup(2e-12, 2e-16), 4e-16,
              1e-22);
  const Pin* a = inv->find_pin("A");
  ASSERT_NE(a, nullptr);
  EXPECT_NEAR(a->capacitance, 0.3e-15, 1e-21);
  EXPECT_EQ(inv->output_pin()->function, "!A");

  const Cell* dff = parsed.find("DFF_X1");
  ASSERT_NE(dff, nullptr);
  EXPECT_TRUE(dff->is_sequential);
  EXPECT_EQ(dff->next_state, "D");
}

TEST(Liberty, WriterKeepsFullDoublePrecision) {
  // The default ostream precision (6 significant digits) used to
  // quantize every table value at ~1e-6 relative, so a library loaded
  // from the .lib cache differed from the freshly characterized one and
  // warm runs drifted off cold runs. The writer emits max_digits10
  // digits: a value survives the write -> parse round trip to within an
  // ulp of the unit conversion.
  Library lib = sample_library();
  const double awkward = 1.2244754282154207e-12;
  lib.cells[0].arcs[0].cell_rise = NldmTable{{1e-12}, {1e-16}, {awkward}};
  const Library parsed = parse_liberty(to_liberty(lib));
  const double got =
      parsed.find("INV_X1")->arcs[0].cell_rise.lookup(1e-12, 1e-16);
  EXPECT_NEAR(got, awkward, awkward * 1e-15);
}

TEST(Liberty, ParserHandlesCommentsAndContinuations) {
  const std::string text = R"(
/* a comment */
library (demo) {
  nom_voltage : 0.7;
  temperature_kelvin : 300;
  cell (BUF) {
    area : 0.1;
    pin (A) { direction : input; capacitance : 0.5; }
    pin (Y) { direction : output; function : "A"; }
  }
}
)";
  const Library lib = parse_liberty(text);
  EXPECT_EQ(lib.name, "demo");
  ASSERT_EQ(lib.cells.size(), 1u);
  EXPECT_EQ(lib.cells[0].name, "BUF");
}

TEST(Liberty, ParserRejectsGarbage) {
  EXPECT_THROW(parse_liberty("not liberty at all"), std::runtime_error);
  EXPECT_THROW(parse_liberty("library (x) { cell (y) {"), std::runtime_error);
}

TEST(Liberty, ParserThrowsOnTruncatedInputInsteadOfHanging) {
  // Input ending mid-attribute-value / mid-argument-list used to spin
  // forever appending empty tokens (the tokenizer returns "" at EOF),
  // allocating without bound. The contract is parse-or-throw.
  EXPECT_THROW(parse_liberty("library (x) { nom_voltage : 0.7"),
               std::runtime_error);
  EXPECT_THROW(parse_liberty("library (x) { index_1 (\"1, 2\""),
               std::runtime_error);
  EXPECT_THROW(parse_liberty("library (x"), std::runtime_error);
}

// Malformed numeric attributes used to reach raw std::stod, which
// aborts with std::invalid_argument / std::out_of_range carrying zero
// context. They must surface as cryo::Error{kIo} (exit 3) naming the
// cell/pin/attribute, so a corrupted characterization cache reads as a
// bad input file, not an internal crash.
void expect_io_error(const std::string& text, const std::string& needle) {
  try {
    parse_liberty(text);
    FAIL() << "expected Error{kIo} for: " << text;
  } catch (const cryo::Error& e) {
    EXPECT_EQ(e.kind(), cryo::ErrorKind::kIo);
    const std::string what = e.what();
    EXPECT_NE(what.find(needle), std::string::npos)
        << "message '" << what << "' lacks '" << needle << "'";
  }
}

TEST(Liberty, MalformedNumbersAreIoErrorsWithAttributeContext) {
  expect_io_error("library (x) { cell (INV) { area : banana; } }",
                  "cell 'INV' area");
  expect_io_error("library (x) { cell (INV) { area : banana; } }", "banana");
  expect_io_error(
      "library (x) { cell (NAND2) { cell_leakage_power : 1.2.3; } }",
      "cell 'NAND2' cell_leakage_power");
  expect_io_error(
      "library (x) { cell (INV) { pin (A) { direction : input; "
      "capacitance : 2e; } } }",
      "pin 'A' capacitance");
  expect_io_error("library (x) { nom_temperature : cold; }",
                  "nom_temperature");
  expect_io_error("library (x) { temperature_kelvin : 4K; }",
                  "temperature_kelvin");
  expect_io_error("library (x) { nom_voltage : 0v7; }", "nom_voltage");
  // Overflow and non-finite values are as unusable as garbage text.
  expect_io_error("library (x) { cell (INV) { area : 1e999; } }",
                  "cell 'INV' area");
  expect_io_error("library (x) { nom_voltage : nan; }", "nom_voltage");
}

TEST(Liberty, MalformedTableNumbersNameTheTable) {
  expect_io_error(
      "library (x) { cell (INV) { pin (Y) { direction : output; "
      "timing () { cell_rise (t) { index_1 (\"0.1, oops\"); } } } } }",
      "cell 'INV' pin 'Y' cell_rise index_1");
  expect_io_error(
      "library (x) { cell (INV) { pin (Y) { direction : output; "
      "timing () { cell_fall (t) { values (\"0.1, 0.2x\"); } } } } }",
      "cell_fall values");
  expect_io_error(
      "library (x) { cell (INV) { pin (Y) { direction : output; "
      "internal_power () { rise_power (t) { index_2 (\"bad\"); } } } } }",
      "rise_power index_2");
}

TEST(Liberty, WellFormedNumbersStillParse) {
  const Library lib = parse_liberty(
      "library (x) { nom_temperature : -195.8; nom_voltage : 0.55;\n"
      "  cell (INV) { area : 0.798; cell_leakage_power : 0.0013;\n"
      "    pin (A) { direction : input; capacitance : 0.0008; } } }");
  EXPECT_NEAR(lib.temperature_k, -195.8 + 273.15, 1e-9);
  EXPECT_DOUBLE_EQ(lib.voltage, 0.55);
  ASSERT_EQ(lib.cells.size(), 1u);
  EXPECT_DOUBLE_EQ(lib.cells[0].area, 0.798);
}

TEST(Cell, Helpers) {
  const Library lib = sample_library();
  const Cell& inv = lib.cells[0];
  EXPECT_EQ(inv.input_names(), std::vector<std::string>{"A"});
  EXPECT_NE(inv.arc_from("A"), nullptr);
  EXPECT_EQ(inv.arc_from("Z"), nullptr);
  EXPECT_GT(inv.typical_delay(1.5e-12, 1.5e-16), 0.0);
  EXPECT_GT(inv.typical_energy(1.5e-12, 1.5e-16), 0.0);
}

}  // namespace
