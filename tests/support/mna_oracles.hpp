// Test oracles for circuit solutions built from the element equations
// alone -- never from the device bank or the Newton assembler -- so a solver
// test checks the engine against something other than itself.
#ifndef VSSTAT_TESTS_SUPPORT_MNA_ORACLES_HPP
#define VSSTAT_TESTS_SUPPORT_MNA_ORACLES_HPP

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "spice/analysis.hpp"
#include "spice/circuit.hpp"
#include "spice/elements.hpp"

namespace vsstat::test_support {

/// Kirchhoff's current law at every non-ground node of a DC operating
/// point.  MOSFET currents come from MosfetElement::terminalDrainCurrent
/// (the scalar compact model; no DC gate current), voltage-source currents
/// from the solution's branch unknowns, and capacitors are open.  The net
/// current leaving each node must vanish within `absTol` [A] -- the Newton
/// residual tolerance -- plus `relTol` times the sum of the current
/// magnitudes meeting there, which absorbs the model's documented
/// evaluate()-vs-evaluateLoad() agreement.  Other element types fail the
/// check: their DC currents are not modelled here.
inline void expectKcl(const spice::Circuit& circuit,
                      const spice::OperatingPoint& op, double absTol = 1e-9,
                      double relTol = 1e-5) {
  std::vector<double> net(circuit.nodeCount(), 0.0);
  std::vector<double> magnitude(circuit.nodeCount(), 0.0);
  const auto leave = [&](spice::NodeId node, double i) {
    net[static_cast<std::size_t>(node)] += i;
    magnitude[static_cast<std::size_t>(node)] += std::fabs(i);
  };
  for (const auto& element : circuit.elements()) {
    if (const auto* m =
            dynamic_cast<const spice::MosfetElement*>(element.get())) {
      const double id = m->terminalDrainCurrent(
          op.v(m->drain()), op.v(m->gate()), op.v(m->source()));
      leave(m->drain(), id);
      leave(m->source(), -id);
    } else if (const auto* v = dynamic_cast<const spice::VoltageSourceElement*>(
                   element.get())) {
      const double i =
          op.branchCurrents[static_cast<std::size_t>(v->branchBase())];
      leave(v->positiveNode(), i);
      leave(v->negativeNode(), -i);
    } else if (dynamic_cast<const spice::CapacitorElement*>(element.get()) ==
               nullptr) {
      ADD_FAILURE() << "KCL oracle has no DC model for " << element->name();
    }
  }
  for (std::size_t n = 1; n < net.size(); ++n) {
    EXPECT_LE(std::fabs(net[n]), absTol + relTol * magnitude[n])
        << "KCL at node " << circuit.nodeName(static_cast<spice::NodeId>(n))
        << ": net " << net[n] << " A of " << magnitude[n] << " A";
  }
}

}  // namespace vsstat::test_support

#endif  // VSSTAT_TESTS_SUPPORT_MNA_ORACLES_HPP
