"""Lead-time-based pricing over an in-memory knowledge graph.

Build a dataset (CSV or seeded synthetic), derive per-customer premiums from
order-behavior statistics, price every order under the original / RM / convex
regimes, materialize everything as triples, and answer analytics questions
through a small declarative graph-query language.
"""
