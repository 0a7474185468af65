"""Package metadata and install requirements (the project has no
``pyproject.toml``; this file is the single source).

``pip install -e .`` or ``python setup.py develop`` installs the ``repro``
package from ``src/``; NumPy is a hard requirement (the columnar pipeline
stores every column as an ndarray).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "THEMIS: fairness in federated stream processing under overload "
        "(SIGMOD 2016 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy", "scipy", "networkx"],
)
